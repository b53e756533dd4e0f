package sim

import (
	"testing"
	"testing/quick"
	"time"
)

// Property: events always fire in non-decreasing time order regardless
// of insertion order.
func TestQuickEventOrdering(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, tt := range times {
			tt := Time(tt)
			e.At(tt, func() { fired = append(fired, tt) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(times)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: pipe reservations never overlap and never move backward.
func TestQuickPipeReservationsDisjoint(t *testing.T) {
	f := func(sizes []uint8) bool {
		e := NewEngine()
		pp := NewPipe(e, "p", 1e6, time.Microsecond)
		var lastEnd Time
		for _, n := range sizes {
			s, end := pp.Reserve(int(n))
			if s < lastEnd || end < s {
				return false
			}
			lastEnd = end
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: derived random streams are stable (same label, same values)
// and independent of draw order.
func TestQuickRandStreams(t *testing.T) {
	f := func(seed int64) bool {
		a := NewRand(seed).Stream("x").Int63()
		r := NewRand(seed)
		r.Stream("y").Int63() // interleave another stream
		b := r.Stream("x").Int63()
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandSeedAccessor(t *testing.T) {
	if NewRand(123).Seed() != 123 {
		t.Fatal("Seed() mismatch")
	}
	if NewRand(1).Stream("a").Seed() == NewRand(2).Stream("a").Seed() {
		t.Fatal("streams from different seeds collide")
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	p := NewRand(5).Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

package sim

import (
	"math/rand"
	"sync"
	"testing"
)

// isolateSlabs gives the test a fresh process-wide slab list (engines
// other tests leaked stay counted on the old one) and restores the old
// list when the test ends.
func isolateSlabs(t *testing.T) *slabList {
	t.Helper()
	old := slabs
	slabs = new(slabList)
	t.Cleanup(func() { slabs = old })
	return slabs
}

// retained checks the list's byte count against its contents and
// returns the number of slabs held per bucket.
func retained(t *testing.T, l *slabList) map[int]int {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	sum, held := 0, map[int]int{}
	for k, s := range l.free {
		for _, b := range s {
			sum += cap(b)
		}
		if len(s) > 0 {
			held[k] = len(s)
		}
	}
	if sum != l.bytes {
		t.Fatalf("list counts %d bytes, holds %d", l.bytes, sum)
	}
	if sum > slabCap {
		t.Fatalf("list holds %d bytes, cap %d", sum, slabCap)
	}
	return held
}

// TestReleasedSlabComesBackZeroed: a dirty slab handed back is reused
// and cleared before the next GetSlab returns it, exactly as make would.
func TestReleasedSlabComesBackZeroed(t *testing.T) {
	isolateSlabs(t)
	e := NewEngine()
	defer e.Close()
	b := GetSlab(5000)
	for i := range b {
		b[i] = 0xAA
	}
	PutSlab(b)
	c := GetSlab(5000)
	if &c[0] != &b[0] {
		t.Fatal("released slab was not reused")
	}
	if len(c) != 5000 {
		t.Fatalf("len %d, want 5000", len(c))
	}
	for i, v := range c {
		if v != 0 {
			t.Fatalf("byte %d of a reused slab is %#x, want 0", i, v)
		}
	}
}

// TestSlabCapDropsLargestFirst: a full list makes room for a small slab
// by dropping its largest ones, and drops an incoming slab that is
// itself the largest; retained bytes never exceed the cap.
func TestSlabCapDropsLargestFirst(t *testing.T) {
	l := isolateSlabs(t)
	e := NewEngine()
	defer e.Close()
	const mib = 1 << 20
	for range slabCap / mib {
		PutSlab(make([]byte, mib))
	}
	if got := retained(t, l); got[20] != slabCap/mib {
		t.Fatalf("held %v, want %d 1 MiB slabs", got, slabCap/mib)
	}
	PutSlab(make([]byte, 64<<10)) // full: one 1 MiB slab makes room
	if got := retained(t, l); got[20] != slabCap/mib-1 || got[16] != 1 {
		t.Fatalf("held %v after a 64 KiB release, want %d×1 MiB + 1×64 KiB", got, slabCap/mib-1)
	}
	PutSlab(make([]byte, 2*mib)) // largest and does not fit: dropped
	if got := retained(t, l); got[21] != 0 || got[20] != slabCap/mib-1 {
		t.Fatalf("held %v after a 2 MiB release, want it dropped", got)
	}
	PutSlab(make([]byte, slabCap+1)) // above the cap: never held
	if got := retained(t, l); got[23] != 0 {
		t.Fatalf("held %v, want no slab above the cap", got)
	}
	for range 2 * slabCap / (8 << 10) { // 8 KiB pages push out every larger slab
		PutSlab(make([]byte, 8<<10))
		retained(t, l)
	}
	if got := retained(t, l); len(got) != 1 || got[13] != slabCap/(8<<10) {
		t.Fatalf("held %v after filling with pages, want only %d 8 KiB pages", got, slabCap/(8<<10))
	}

	rng := rand.New(rand.NewSource(1))
	for range 2000 {
		if rng.Intn(3) == 0 {
			GetSlab(1 + rng.Intn(2*mib))
		} else {
			PutSlab(make([]byte, 1+rng.Intn(2*mib)))
		}
		retained(t, l)
	}
}

// TestSlabsEmptyAfterLastEngineCloses: the list keeps slabs while any
// engine is open, empties when the last one closes (a second Close of
// the same engine counts once), and drops releases while none is open.
func TestSlabsEmptyAfterLastEngineCloses(t *testing.T) {
	l := isolateSlabs(t)
	e1, e2 := NewEngine(), NewEngine()
	PutSlab(make([]byte, 8<<10))
	e1.Close()
	e1.Close()
	if l.bytes != 8<<10 {
		t.Fatalf("list holds %d bytes with one engine open, want %d", l.bytes, 8<<10)
	}
	e2.Close()
	if got := retained(t, l); l.bytes != 0 || len(got) != 0 {
		t.Fatalf("list holds %d bytes %v after the last engine closed", l.bytes, got)
	}
	PutSlab(make([]byte, 8<<10))
	if l.bytes != 0 || l.engines != 0 {
		t.Fatalf("no engine open: list holds %d bytes, counts %d engines", l.bytes, l.engines)
	}
}

// TestSlabsConcurrent: GetSlab and PutSlab from many goroutines (the
// parallel runner's workers) hand out only zeroed slabs; run under
// -race it checks the list's locking.
func TestSlabsConcurrent(t *testing.T) {
	l := isolateSlabs(t)
	e := NewEngine()
	defer e.Close()
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for range 500 {
				b := GetSlab(1 + rng.Intn(64<<10))
				for i, v := range b {
					if v != 0 {
						t.Errorf("byte %d of a handed-out slab is %#x", i, v)
						return
					}
					b[i] = byte(w + 1)
				}
				PutSlab(b)
			}
		}()
	}
	wg.Wait()
	retained(t, l)
}

// TestSweepHoldsSlabsBetweenEngines: a HoldSlabs holder keeps the list
// while no engine is open, so a lone engine's releases reach the next
// engine; the list empties when the last holder of either kind lets go.
func TestSweepHoldsSlabsBetweenEngines(t *testing.T) {
	l := isolateSlabs(t)
	HoldSlabs()
	e := NewEngine()
	b := GetSlab(8 << 10)
	PutSlab(b)
	e.Close()
	if l.bytes != 8<<10 {
		t.Fatalf("list holds %d bytes with a sweep holding it, want %d", l.bytes, 8<<10)
	}
	e = NewEngine()
	if c := GetSlab(8 << 10); &c[0] != &b[0] {
		t.Fatal("the next engine did not reuse the slab the last one released")
	}
	PutSlab(b)
	ReleaseSlabs() // the engine still holds the list
	if l.bytes != 8<<10 {
		t.Fatalf("list holds %d bytes with an engine open, want %d", l.bytes, 8<<10)
	}
	e.Close()
	if got := retained(t, l); l.bytes != 0 || len(got) != 0 {
		t.Fatalf("list holds %d bytes %v after its last holder let go", l.bytes, got)
	}
	PutSlab(make([]byte, 8<<10))
	if l.bytes != 0 || l.engines != 0 || l.sweeps != 0 {
		t.Fatalf("nothing holds the list: it holds %d bytes, counts %d engines and %d sweeps",
			l.bytes, l.engines, l.sweeps)
	}
}

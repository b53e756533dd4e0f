package hpf

import (
	"testing"
	"testing/quick"
)

func TestDimOwnerLocalCount(t *testing.T) {
	cases := []struct {
		name string
		d    Dim
		// per index: owner, local
		owners []int
		locals []int
		counts []int // per proc
	}{
		{
			name:   "block even",
			d:      Dim{N: 8, P: 4, Kind: Block},
			owners: []int{0, 0, 1, 1, 2, 2, 3, 3},
			locals: []int{0, 1, 0, 1, 0, 1, 0, 1},
			counts: []int{2, 2, 2, 2},
		},
		{
			name:   "block uneven (HPF ceil)",
			d:      Dim{N: 10, P: 4, Kind: Block},
			owners: []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 3},
			locals: []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0},
			counts: []int{3, 3, 3, 1},
		},
		{
			name:   "cyclic",
			d:      Dim{N: 7, P: 3, Kind: Cyclic},
			owners: []int{0, 1, 2, 0, 1, 2, 0},
			locals: []int{0, 0, 0, 1, 1, 1, 2},
			counts: []int{3, 2, 2},
		},
		{
			name:   "none",
			d:      Dim{N: 5, P: 1, Kind: None},
			owners: []int{0, 0, 0, 0, 0},
			locals: []int{0, 1, 2, 3, 4},
			counts: []int{5},
		},
	}
	for _, c := range cases {
		for i := 0; i < c.d.N; i++ {
			if got := c.d.Owner(i); got != c.owners[i] {
				t.Errorf("%s: Owner(%d) = %d, want %d", c.name, i, got, c.owners[i])
			}
			if got := c.d.Local(i); got != c.locals[i] {
				t.Errorf("%s: Local(%d) = %d, want %d", c.name, i, got, c.locals[i])
			}
		}
		for p := 0; p < c.d.P; p++ {
			if got := c.d.Count(p); got != c.counts[p] {
				t.Errorf("%s: Count(%d) = %d, want %d", c.name, p, got, c.counts[p])
			}
		}
	}
}

// Property: every index has exactly one owner, locals are dense per
// owner, and counts sum to N — for all kinds, extents, and proc counts.
func TestQuickDimPartition(t *testing.T) {
	f := func(nRaw, pRaw uint8, kindSel uint8) bool {
		n := int(nRaw)%60 + 1
		p := int(pRaw)%8 + 1
		kind := DistKind(kindSel % 3)
		if kind == None {
			p = 1
		}
		d := Dim{N: n, P: p, Kind: kind}
		counts := make([]int, p)
		seenLocal := make([]map[int]bool, p)
		for i := range seenLocal {
			seenLocal[i] = map[int]bool{}
		}
		for i := 0; i < n; i++ {
			o := d.Owner(i)
			if o < 0 || o >= p {
				return false
			}
			l := d.Local(i)
			if seenLocal[o][l] {
				return false // local index collision
			}
			seenLocal[o][l] = true
			counts[o]++
		}
		total := 0
		for p2 := 0; p2 < p; p2++ {
			if counts[p2] != d.Count(p2) {
				return false
			}
			total += counts[p2]
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDimValidate(t *testing.T) {
	if err := (Dim{N: 0, P: 1, Kind: None}).validate("x"); err == nil {
		t.Error("zero extent accepted")
	}
	if err := (Dim{N: 4, P: 0, Kind: Block}).validate("x"); err == nil {
		t.Error("zero procs accepted")
	}
	if err := (Dim{N: 4, P: 2, Kind: None}).validate("x"); err == nil {
		t.Error("NONE with P>1 accepted")
	}
	if err := (Dim{N: 4, P: 2, Kind: Cyclic}).validate("x"); err != nil {
		t.Errorf("valid dim rejected: %v", err)
	}
}

func TestDistKindString(t *testing.T) {
	if None.String() != "NONE" || Block.String() != "BLOCK" || Cyclic.String() != "CYCLIC" {
		t.Fatal("kind names")
	}
}

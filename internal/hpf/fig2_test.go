package hpf

import "testing"

// Figure 2 of the paper gives, for a 1x8 vector and an 8x8 matrix
// distributed over four processors, the chunk size (cs, in elements) and
// stride (s) of every pattern. These are the ground truth for the chunk
// generator. Record size 1 makes elements == bytes.

// fig2Decomp builds the decomposition exactly as the paper's figure does
// (2x2 grid for doubly-distributed matrices, 1x4 or 4x1 otherwise).
func fig2Decomp(t *testing.T, name string) *Decomp {
	t.Helper()
	p := mustPattern(t, name)
	var records int
	if p.TwoD {
		records = 64
	} else {
		records = 8
	}
	d, err := p.Decomp(int64(records), 1, 4)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return d
}

// chunkStats extracts the paper's cs (largest chunk) and the set of
// distinct strides between consecutive chunks of CP 0.
func chunkStats(d *Decomp) (cs int64, strides map[int64]bool) {
	strides = map[int64]bool{}
	chunks := d.Chunks(0)
	for i, c := range chunks {
		if c.Len > cs {
			cs = c.Len
		}
		if i > 0 {
			strides[c.FileOff-chunks[i-1].FileOff] = true
		}
	}
	return cs, strides
}

func TestFigure2Vector(t *testing.T) {
	cases := []struct {
		name    string
		cs      int64
		strides []int64
	}{
		{"rn", 8, nil},        // NONE: whole vector, one chunk
		{"rb", 2, nil},        // BLOCK: cs=2, single chunk per CP
		{"rc", 1, []int64{4}}, // CYCLIC: cs=1, s=4
	}
	for _, c := range cases {
		d := fig2Decomp(t, c.name)
		cs, strides := chunkStats(d)
		if cs != c.cs {
			t.Errorf("%s: cs = %d, want %d", c.name, cs, c.cs)
		}
		for _, s := range c.strides {
			if !strides[s] {
				t.Errorf("%s: missing stride %d (got %v)", c.name, s, strides)
			}
		}
	}
}

func TestFigure2Matrix(t *testing.T) {
	cases := []struct {
		name    string
		cs      int64
		strides []int64 // expected stride set of CP0 (empty = single chunk)
	}{
		{"rnn", 64, nil},           // whole matrix to CP 0
		{"rbn", 16, nil},           // two whole rows, contiguous
		{"rcn", 8, []int64{32}},    // every 4th row: cs=8, s=32
		{"rnb", 2, []int64{8}},     // cs=2, s=8
		{"rbb", 4, []int64{8}},     // cs=4, s=8
		{"rcb", 4, []int64{16}},    // cs=4, s=16
		{"rnc", 1, []int64{4}},     // == rc per row
		{"rbc", 1, []int64{2}},     // cs=1, s=2
		{"rcc", 1, []int64{2, 10}}, // cs=1, s=2 and 10 at row turns
	}
	for _, c := range cases {
		d := fig2Decomp(t, c.name)
		cs, strides := chunkStats(d)
		if cs != c.cs {
			t.Errorf("%s: cs = %d, want %d", c.name, cs, c.cs)
		}
		if len(c.strides) == 0 && len(strides) > 0 {
			// Merged into one chunk: no strides expected at all.
			t.Errorf("%s: expected a single chunk, got strides %v", c.name, strides)
		}
		for _, s := range c.strides {
			if !strides[s] {
				t.Errorf("%s: missing stride %d (got %v)", c.name, s, strides)
			}
		}
		if len(c.strides) > 0 && len(strides) != len(c.strides) {
			t.Errorf("%s: stride set %v, want %v", c.name, strides, c.strides)
		}
	}
}

// The paper notes rnn==rn, rnc==rc, rbn==rb for its configuration: the
// redundant 2-D forms must produce the same chunk lists as the 1-D ones.
func TestFigure2RedundantPatterns(t *testing.T) {
	pairs := [][2]string{{"rnn", "rn"}, {"rnc", "rc"}, {"rbn", "rb"}}
	for _, pair := range pairs {
		a := fig2Decomp(t, pair[0])
		// Build the 1-D equivalent over the matrix's record count.
		p := mustPattern(t, pair[1])
		b, err := p.Decomp(int64(a.NumRecords()), 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		for cp := 0; cp < 4; cp++ {
			ca, cb := a.Chunks(cp), b.Chunks(cp)
			if len(ca) != len(cb) {
				t.Errorf("%s vs %s cp%d: %d vs %d chunks", pair[0], pair[1], cp, len(ca), len(cb))
				continue
			}
			for i := range ca {
				if ca[i] != cb[i] {
					t.Errorf("%s vs %s cp%d chunk %d: %+v vs %+v", pair[0], pair[1], cp, i, ca[i], cb[i])
				}
			}
		}
	}
}

func TestFigure2ALLPattern(t *testing.T) {
	d := fig2Decomp(t, "ra")
	for cp := 0; cp < 4; cp++ {
		chunks := d.Chunks(cp)
		if len(chunks) != 1 || chunks[0].Len != 8 || chunks[0].FileOff != 0 {
			t.Fatalf("ra cp%d chunks %+v", cp, chunks)
		}
	}
	if n := activeCPs(d); n != 4 {
		t.Fatalf("ra active CPs %d", n)
	}
}

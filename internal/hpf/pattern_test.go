package hpf

import "testing"

func TestParsePatternValid(t *testing.T) {
	cases := []struct {
		name  string
		write bool
		all   bool
		twoD  bool
		rk    DistKind
		ck    DistKind
	}{
		{"ra", false, true, false, None, None},
		{"rn", false, false, false, None, None},
		{"rb", false, false, false, None, Block},
		{"rc", false, false, false, None, Cyclic},
		{"wb", true, false, false, None, Block},
		{"rnb", false, false, true, None, Block},
		{"rcb", false, false, true, Cyclic, Block},
		{"rbc", false, false, true, Block, Cyclic},
		{"wcn", true, false, true, Cyclic, None},
	}
	for _, c := range cases {
		p, err := ParsePattern(c.name)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if p.Write != c.write || p.All != c.all || p.TwoD != c.twoD {
			t.Errorf("%s: %+v", c.name, p)
		}
		if c.twoD && (p.RowKind != c.rk || p.ColKind != c.ck) {
			t.Errorf("%s kinds: %+v", c.name, p)
		}
		if !c.twoD && !c.all && p.ColKind != c.ck {
			t.Errorf("%s col kind: %+v", c.name, p)
		}
	}
}

func TestParsePatternErrors(t *testing.T) {
	for _, bad := range []string{"", "r", "x", "xb", "rz", "rbz", "rbcn", "wa"} {
		if _, err := ParsePattern(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// mustPattern parses a pattern name, failing the test on error.
func mustPattern(t *testing.T, name string) Pattern {
	t.Helper()
	p, err := ParsePattern(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMatrixDims(t *testing.T) {
	cases := []struct{ records, rows, cols int }{
		{64, 8, 8},
		{1280, 32, 40},        // 10 MB of 8 KB records
		{1310720, 1024, 1280}, // 10 MB of 8-byte records
		{100, 4, 25},          // largest pow2 divisor <= sqrt wins
		{7, 1, 7},             // prime
	}
	for _, c := range cases {
		rows, cols, err := MatrixDims(c.records)
		if err != nil {
			t.Fatal(err)
		}
		if rows != c.rows || cols != c.cols {
			t.Errorf("MatrixDims(%d) = %dx%d, want %dx%d", c.records, rows, cols, c.rows, c.cols)
		}
		if rows*cols != c.records {
			t.Errorf("MatrixDims(%d) loses records", c.records)
		}
	}
	if _, _, err := MatrixDims(0); err == nil {
		t.Error("zero records accepted")
	}
}

func TestGridDims(t *testing.T) {
	cases := []struct {
		ncp    int
		rk, ck DistKind
		pr, pc int
	}{
		{16, Block, Block, 4, 4},
		{16, None, Block, 1, 16},
		{16, Cyclic, None, 16, 1},
		{16, None, None, 1, 1},
		{8, Block, Cyclic, 2, 4},
		{1, Block, Block, 1, 1},
	}
	for _, c := range cases {
		pr, pc := GridDims(c.ncp, c.rk, c.ck)
		if pr != c.pr || pc != c.pc {
			t.Errorf("GridDims(%d,%v,%v) = %dx%d, want %dx%d", c.ncp, c.rk, c.ck, pr, pc, c.pr, c.pc)
		}
	}
}

func TestPatternDecompShapes(t *testing.T) {
	// 10 MB, 8 KB records, 16 CPs — the paper's standard setup.
	for _, name := range AllPatterns() {
		p := mustPattern(t, name)
		d, err := p.Decomp(10<<20, 8192, 16)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.FileBytes() != 10<<20 {
			t.Fatalf("%s: file bytes %d", name, d.FileBytes())
		}
		var total int64
		for cp := 0; cp < 16; cp++ {
			total += d.CPBytes(cp)
		}
		want := int64(10 << 20)
		if d.All {
			want *= 16
		}
		if total != want {
			t.Fatalf("%s: CP bytes total %d, want %d", name, total, want)
		}
	}
}

func TestPatternDecompBadSizes(t *testing.T) {
	p := mustPattern(t, "rb")
	if _, err := p.Decomp(1000, 17, 4); err == nil {
		t.Error("non-divisible record size accepted")
	}
}

func TestPatternLists(t *testing.T) {
	if len(ReadPatterns()) != 10 || len(WritePatterns()) != 9 {
		t.Fatalf("pattern list sizes %d/%d", len(ReadPatterns()), len(WritePatterns()))
	}
	all := AllPatterns()
	if len(all) != 19 {
		t.Fatalf("AllPatterns %d", len(all))
	}
	seen := map[string]bool{}
	for _, n := range all {
		if seen[n] {
			t.Fatalf("duplicate pattern %s", n)
		}
		seen[n] = true
		if _, err := ParsePattern(n); err != nil {
			t.Fatalf("listed pattern %s does not parse: %v", n, err)
		}
	}
}

package exp

import (
	"testing"

	"ddio/internal/pfs"
)

// tinyOptions keeps figure machinery tests fast: one trial, small file.
func tinyOptions() Options {
	return Options{Trials: 1, FileBytes: 1 * MiB, Seed: 3, Verify: true}
}

// tinyPatternSpec is a minimal pattern-axis grid (two patterns × two
// file systems) for shape, determinism and progress tests.
func tinyPatternSpec() *SweepSpec {
	return &SweepSpec{
		Name: "figT", Title: "test", Axis: AxisPattern,
		Layout: "contiguous", Methods: []string{"tc", "ddio"}, Patterns: []string{"rb", "rc"},
	}
}

func TestPatternTableShape(t *testing.T) {
	res, err := tinyPatternSpec().RunFull(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Table
	if len(tab.Rows) != 2 || len(tab.Cols) != 2 || len(tab.Cells) != 2 {
		t.Fatalf("table shape %dx%d", len(tab.Rows), len(tab.Cols))
	}
	if tab.RowLabel != "pattern" || tab.Rows[1] != "rc" || tab.Cols[0] != "TC" || tab.Cols[1] != "DDIO" {
		t.Fatalf("labels: row %q %v, cols %v", tab.RowLabel, tab.Rows, tab.Cols)
	}
	for i := range tab.Cells {
		if len(tab.Cells[i]) != 2 {
			t.Fatalf("row %d has %d cells; the pattern axis has no max-bw column", i, len(tab.Cells[i]))
		}
		for j := range tab.Cells[i] {
			if tab.Cells[i][j].Mean <= 0 {
				t.Fatalf("cell (%d,%d) empty", i, j)
			}
		}
	}
}

// tinySweepSpec is a minimal two-value CP sweep for shape and
// determinism tests.
func tinySweepSpec() *SweepSpec {
	return &SweepSpec{
		Name: "figS", Title: "test", Axis: AxisCPs, Values: []int{1, 2},
		IOPs: 4, Disks: 4,
		Layout: "contiguous", Methods: []string{"ddio", "tc"},
		Patterns: []string{"ra", "rn", "rb", "rc"},
	}
}

func TestSweepTableShape(t *testing.T) {
	o := tinyOptions()
	res, err := tinySweepSpec().RunFull(o)
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Table
	if len(tab.Rows) != 2 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	// 2 methods x 4 patterns + max-bw column.
	if len(tab.Cols) != 9 {
		t.Fatalf("cols %d: %v", len(tab.Cols), tab.Cols)
	}
	if mb, ok := tab.Cell("1", "max-bw"); !ok || mb.Mean <= 0 {
		t.Fatalf("max-bw cell %v %v", mb, ok)
	}
	if tab.RowLabel != "CPs" || tab.ID != "figS" {
		t.Fatalf("row label %q, id %q", tab.RowLabel, tab.ID)
	}
}

// TestFigureShapes runs a miniature of the full evaluation and checks
// the paper's qualitative claims hold even at 1/10 the file size:
// disk-directed beats traditional caching on the random layout, the
// presort wins, and the contiguous layout beats the random layout.
func TestFigureShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("miniature evaluation still takes seconds")
	}
	o := tinyOptions()
	run := func(method Method, pattern string, layout pfs.LayoutKind, rec int) float64 {
		cfg := o.base()
		cfg.Method = method
		cfg.Pattern = pattern
		cfg.Layout = layout
		cfg.RecordSize = rec
		tr, err := Trials(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		return tr.Mean
	}
	tcRandom := run(TraditionalCaching, "rc", pfs.RandomBlocks, 8)
	ddSorted := run(DiskDirectedSort, "rc", pfs.RandomBlocks, 8)
	ddPlain := run(DiskDirected, "rc", pfs.RandomBlocks, 8)
	ddContig := run(DiskDirected, "rc", pfs.Contiguous, 8192)
	if ddSorted < 2*tcRandom {
		t.Errorf("DDIO+sort (%.2f) should beat TC (%.2f) by far on random 8-byte cyclic", ddSorted, tcRandom)
	}
	if ddSorted <= ddPlain {
		t.Errorf("presort (%.2f) should beat unsorted (%.2f) on random layout", ddSorted, ddPlain)
	}
	if ddContig < 2*ddSorted {
		t.Errorf("contiguous (%.2f) should dwarf random (%.2f)", ddContig, ddSorted)
	}
}

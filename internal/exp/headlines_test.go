package exp

import (
	"strings"
	"testing"
)

// fakeFig builds a synthetic figure table for headline math; rows are
// fixed to {ra, rc} for determinism.
func fakeFig(cols []string, cells map[string][]float64) *Table {
	t := &Table{RowLabel: "pattern", Cols: cols}
	rows := []string{"ra", "rc"}
	t.Rows = rows
	for _, r := range rows {
		var cs []Cell
		for _, m := range cells[r] {
			cs = append(cs, Cell{Mean: m})
		}
		t.Cells = append(t.Cells, cs)
	}
	return t
}

func TestComputeHeadlines(t *testing.T) {
	cols3 := []string{"TC", "DDIO", "DDIO+sort"}
	cols4 := []string{"TC", "DDIO"}
	fig3 := []*Table{
		fakeFig(cols3, map[string][]float64{"ra": {1.0, 4.0, 6.0}, "rc": {0.8, 4.5, 6.3}}),
		fakeFig(cols3, map[string][]float64{"ra": {3.0, 4.4, 6.2}, "rc": {2.0, 4.2, 6.1}}),
	}
	fig4 := []*Table{
		fakeFig(cols4, map[string][]float64{"ra": {20.0, 33.0}, "rc": {2.0, 32.0}}),
		fakeFig(cols4, map[string][]float64{"ra": {25.0, 33.0}, "rc": {15.0, 32.5}}),
	}
	h, err := ComputeHeadlines(fig3, fig4, 34.8)
	if err != nil {
		t.Fatal(err)
	}
	// Max random speedup: 6.3/0.8 = 7.875.
	if h.MaxSpeedupRandom < 7.8 || h.MaxSpeedupRandom > 7.95 {
		t.Fatalf("random speedup %.3f", h.MaxSpeedupRandom)
	}
	if !strings.Contains(h.MaxSpeedupRandomAt, "rc") {
		t.Fatalf("speedup location %q", h.MaxSpeedupRandomAt)
	}
	// Max contiguous speedup: 32/2 = 16.
	if h.MaxSpeedupContig != 16 {
		t.Fatalf("contig speedup %.3f", h.MaxSpeedupContig)
	}
	// Presort gains: 6/4-1=.5, 6.3/4.5-1=.4, 6.2/4.4-1≈.409, 6.1/4.2-1≈.452.
	if h.PresortGainMin < 0.39 || h.PresortGainMax > 0.51 {
		t.Fatalf("presort range %.2f..%.2f", h.PresortGainMin, h.PresortGainMax)
	}
	// Peak fraction: 33/34.8 ≈ 0.948.
	if h.PeakFraction < 0.94 || h.PeakFraction > 0.96 {
		t.Fatalf("peak fraction %.3f", h.PeakFraction)
	}
	if h.ContigOverRandom <= 1 {
		t.Fatalf("contig/random %.2f", h.ContigOverRandom)
	}
	out := h.Format()
	for _, want := range []string{"16.0x", "93%", "41-50%"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted headlines missing %q:\n%s", want, out)
		}
	}

	// The presort-gain range is a true minimum and maximum: a negative
	// gain early in the grid must neither be overwritten by every later
	// cell nor leave the maximum at its zero value.
	fig3 = []*Table{
		// Gains: ra 3/4-1 = -0.25, rc 6/4-1 = 0.5; then 0.25 and 0.1.
		fakeFig(cols3, map[string][]float64{"ra": {1.0, 4.0, 3.0}, "rc": {0.8, 4.0, 6.0}}),
		fakeFig(cols3, map[string][]float64{"ra": {3.0, 4.0, 5.0}, "rc": {2.0, 4.0, 4.4}}),
	}
	if h, err = ComputeHeadlines(fig3, fig4, 34.8); err != nil {
		t.Fatal(err)
	}
	if h.PresortGainMin != -0.25 || h.PresortGainMax != 0.5 {
		t.Fatalf("presort range %.3f..%.3f, want -0.250..0.500", h.PresortGainMin, h.PresortGainMax)
	}
}

func TestComputeHeadlinesRejectsWrongShape(t *testing.T) {
	if _, err := ComputeHeadlines(nil, nil, 1); err == nil {
		t.Fatal("accepted empty tables")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Fatalf("median %v", m)
	}
	if m := median([]float64{2, 1}); m != 2 {
		t.Fatalf("even median %v", m)
	}
}

// RegenerateHeadlines runs the full Figure 3+4 grid (scaled down to a
// 512 KiB file, one trial, seed 5) and asserts the paper's qualitative
// claims on it. Measured on this grid, against the paper's 10 MB runs:
//
//   - DDIO+sort >= TC in every Figure 3 cell (worst ratio 1.05; the
//     paper: disk-directed I/O never loses to traditional caching);
//   - DDIO >= TC in every Figure 4 cell (worst ratio 0.9998, a saturated
//     write tie);
//   - presort gain 0.7%..28% (paper: 41-50%), always positive;
//   - best DDIO fraction of the hardware ceiling 0.51 (paper: 0.93);
//   - contiguous over random, median 3.6x (paper: ~5x).
//
// The 1% slack on the ratios covers saturated ties. Unsorted DDIO on
// random-blocks falls up to 5% below TC here (worst ratio 0.95), and the
// paper does not claim otherwise, so it is left unasserted.
func TestRegenerateHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the full pattern grid")
	}
	o := Options{Trials: 1, FileBytes: 512 * 1024, Seed: 5, Verify: false, Workers: 8}
	h, results, err := RegenerateHeadlines(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d sweeps, want 4", len(results))
	}
	tabs := tables(results)
	if h.MaxSpeedupRandom <= 1 || h.MaxSpeedupContig <= 1 {
		t.Fatalf("headline speedups not positive: %+v", h)
	}
	atLeast := func(tab *Table, better string) {
		for _, row := range tab.Rows {
			tc, _ := tab.Cell(row, "TC")
			dd, ok := tab.Cell(row, better)
			if !ok || dd.Mean < 0.99*tc.Mean {
				t.Errorf("%s %s: %s %.3f below TC %.3f", tab.ID, row, better, dd.Mean, tc.Mean)
			}
		}
	}
	atLeast(tabs[0], "DDIO+sort")
	atLeast(tabs[1], "DDIO+sort")
	atLeast(tabs[2], "DDIO")
	atLeast(tabs[3], "DDIO")
	if h.PresortGainMin <= 0 {
		t.Errorf("presort gain minimum %.4f, want > 0", h.PresortGainMin)
	}
	if h.PeakFraction < 0.4 || h.PeakFraction > 0.65 {
		t.Errorf("peak fraction %.3f outside [0.40, 0.65] around the measured 0.51", h.PeakFraction)
	}
	if h.ContigOverRandom < 2.5 || h.ContigOverRandom > 5 {
		t.Errorf("contiguous over random %.2fx outside [2.5, 5] around the measured 3.6x", h.ContigOverRandom)
	}
}

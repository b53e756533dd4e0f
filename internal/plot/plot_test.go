package plot

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ddio/internal/exp"
	"ddio/internal/stats"
	"ddio/internal/trace"
)

// -update regenerates the golden SVG files instead of comparing.
var update = flag.Bool("update", false, "rewrite golden SVG files")

// checkGolden compares got against testdata/<name>, rewriting the file
// under -update. SVG output is deterministic by construction, so the
// comparison is byte-exact.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with `go test ./internal/plot -update`): %v", path, err)
	}
	if got != string(want) {
		t.Fatalf("%s differs from golden (regenerate with `go test ./internal/plot -update` and review the diff)", name)
	}
}

// sampleSweep builds a small synthetic SweepResult — no simulation —
// shaped like a fig7-style disks sweep.
func sampleSweep() *exp.SweepResult {
	spec := &exp.SweepSpec{
		Name: "sample-sweep", ID: "figS",
		Title:    "throughput vs disks (sample)",
		Axis:     exp.AxisDisks,
		Values:   []int{1, 2, 4, 8},
		Layout:   "contiguous",
		Methods:  []string{"ddio", "tc"},
		Patterns: []string{"ra", "rc"},
	}
	t := &exp.Table{
		ID: "figS", Title: spec.Title, RowLabel: "disks",
		Rows: []string{"1", "2", "4", "8"},
		Cols: []string{"DDIO ra", "DDIO rc", "TC ra", "TC rc", "max-bw"},
	}
	means := [][]float64{
		{2.2, 2.1, 1.9, 0.4, 2.3},
		{4.4, 4.2, 3.6, 0.5, 4.7},
		{8.7, 8.3, 6.9, 0.5, 9.4},
		{16.9, 16.1, 9.8, 0.5, 18.7},
	}
	for _, row := range means {
		cells := make([]exp.Cell, len(row))
		for j, v := range row {
			cells[j] = exp.Cell{Mean: v}
		}
		t.Cells = append(t.Cells, cells)
	}
	cs := make([][]stats.Summary, len(t.Rows))
	for i := range cs {
		cs[i] = make([]stats.Summary, len(t.Cols)-1)
		for j := range cs[i] {
			cs[i][j] = stats.Summary{N: 1, Mean: means[i][j], Min: means[i][j], Max: means[i][j]}
		}
	}
	return &exp.SweepResult{Spec: spec, Table: t, CellStats: cs}
}

// sampleTrace builds a synthetic two-disk trace: d0 nearly solid, d1
// half idle.
func sampleTrace() *trace.Recorder {
	r := trace.New()
	ms := func(v float64) int64 { return int64(v * 1e6) }
	for i := 0; i < 10; i++ {
		t0 := ms(float64(i) * 10)
		r.DiskService("d0", t0, t0+ms(9), false, 8192, 1)
	}
	for i := 0; i < 5; i++ {
		t0 := ms(float64(i) * 20)
		r.DiskService("d1", t0, t0+ms(10), true, 8192, 0)
	}
	return r
}

func TestSweepFigureGolden(t *testing.T) {
	checkGolden(t, "sweep_figure.svg", SweepFigure(sampleSweep()))
}

func TestTimelineGolden(t *testing.T) {
	checkGolden(t, "timeline.svg", UtilizationTimeline(sampleTrace(), "disk activity — sample"))
}

// TestSweepFigureShape: structural assertions that survive cosmetic
// restyling — the figure carries every series, the ceiling reference,
// and one marker per (series, value).
func TestSweepFigureShape(t *testing.T) {
	svg := SweepFigure(sampleSweep())
	if !strings.HasPrefix(svg, "<svg ") || !strings.HasSuffix(svg, "</svg>\n") {
		t.Fatal("not a standalone SVG document")
	}
	if got := strings.Count(svg, "<polyline "); got != 5 { // 4 series + ceiling
		t.Fatalf("polyline count = %d, want 5", got)
	}
	// 4 series × 4 values markers; the gray ceiling draws no markers.
	if got := strings.Count(svg, "<circle "); got != 16 {
		t.Fatalf("marker count = %d, want 16", got)
	}
	for _, label := range []string{"DDIO ra", "TC rc", "max bandwidth"} {
		if !strings.Contains(svg, ">"+label+"</text>") {
			t.Fatalf("legend label %q missing", label)
		}
	}
}

// TestTableBarsShape: the bars adapter drops the max-bw column and
// draws groups × series bars.
func TestTableBarsShape(t *testing.T) {
	svg := TableBars(sampleSweep().Table)
	if !strings.Contains(svg, "<rect ") {
		t.Fatal("no bars drawn")
	}
	// 4 groups × 4 series data bars; max-bw must not appear.
	if strings.Contains(svg, "max-bw") || strings.Contains(svg, "max bandwidth") {
		t.Fatal("bars figure includes the ceiling column")
	}
	if got := strings.Count(svg, "<title>"); got != 16 {
		t.Fatalf("bar tooltip count = %d, want 16", got)
	}
}

// TestSweepFigurePatternAxis: a pattern-axis sweep renders as the
// grouped bars of Figures 3–4, byte-identical to TableBars of its table.
func TestSweepFigurePatternAxis(t *testing.T) {
	res := &exp.SweepResult{
		Spec: &exp.SweepSpec{Name: "grid", ID: "figG", Title: "pattern grid (sample)",
			Axis: exp.AxisPattern, Layout: "contiguous",
			Methods: []string{"tc", "ddio"}, Patterns: []string{"ra", "rb", "rc"}},
		Table: &exp.Table{ID: "figG", Title: "pattern grid (sample)", RowLabel: "pattern",
			Rows: []string{"ra", "rb", "rc"}, Cols: []string{"TC", "DDIO"},
			Cells: [][]exp.Cell{{{Mean: 20}, {Mean: 33}}, {{Mean: 9}, {Mean: 32}}, {{Mean: 2}, {Mean: 32}}}},
	}
	svg := SweepFigure(res)
	if svg != TableBars(res.Table) {
		t.Fatal("pattern-axis sweep figure differs from the table's TableBars")
	}
	if got := strings.Count(svg, "<title>"); got != 6 { // 3 groups × 2 series
		t.Fatalf("bar tooltip count = %d, want 6", got)
	}
}

// TestTimelineShape: every disk gets a labeled track and a utilization
// label.
func TestTimelineShape(t *testing.T) {
	svg := UtilizationTimeline(sampleTrace(), "t")
	// Horizon is the last busy edge (99 ms): d0 is busy 90/99 ≈ 91%,
	// d1 50/99 ≈ 51%, mean ≈ 71%.
	for _, want := range []string{">d0</text>", ">d1</text>", ">91%</text>", ">51%</text>", "mean disk utilization 71%"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("timeline missing %q", want)
		}
	}
}

// TestDeterministicOutput: the emitters are pure functions.
func TestDeterministicOutput(t *testing.T) {
	a := SweepFigure(sampleSweep())
	b := SweepFigure(sampleSweep())
	if a != b {
		t.Fatal("SweepFigure not deterministic")
	}
	c := UtilizationTimeline(sampleTrace(), "x")
	d := UtilizationTimeline(sampleTrace(), "x")
	if c != d {
		t.Fatal("UtilizationTimeline not deterministic")
	}
}

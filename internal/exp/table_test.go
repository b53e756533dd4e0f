package exp

import (
	"strings"
	"testing"
)

func sampleTable() *Table {
	return &Table{
		ID:       "figX",
		Title:    "sample",
		RowLabel: "pattern",
		Rows:     []string{"ra", "rb"},
		Cols:     []string{"TC", "DDIO"},
		Cells: [][]Cell{
			{{Mean: 1.25, CV: 0.001}, {Mean: 6.5, CV: 0.10}},
			{{Mean: 2.0, CV: 0}, {Mean: 7.0, CV: 0.02}},
		},
		Note: "hello",
	}
}

func TestTableFormat(t *testing.T) {
	s := sampleTable().Format()
	for _, want := range []string{"figX", "sample", "pattern", "ra", "DDIO", "6.50(0.10)", "1.25", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Errorf("formatted table missing %q:\n%s", want, s)
		}
	}
}

func TestTableCSV(t *testing.T) {
	csv := sampleTable().CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines %d", len(lines))
	}
	if lines[0] != "pattern,TC,DDIO" {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "ra,1.250,6.500") {
		t.Fatalf("row %q", lines[1])
	}
}

func TestTableMaxCV(t *testing.T) {
	if cv := sampleTable().MaxCV(); cv != 0.10 {
		t.Fatalf("MaxCV %v", cv)
	}
}

func TestTableCellLookup(t *testing.T) {
	tab := sampleTable()
	c, ok := tab.Cell("rb", "DDIO")
	if !ok || c.Mean != 7.0 {
		t.Fatalf("Cell lookup %v %v", c, ok)
	}
	if _, ok := tab.Cell("zz", "TC"); ok {
		t.Fatal("bogus row found")
	}
	if _, ok := tab.Cell("ra", "zz"); ok {
		t.Fatal("bogus col found")
	}
}

func TestTable1MentionsKeyParameters(t *testing.T) {
	s := Table1()
	for _, want := range []string{"HP97560", "8 KB", "SCSI", "torus", "wormhole", "32 processors"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
}

// TestFigureOptionsProgress: Options.Progress receives one line per
// finished cell, here of a one-cell sweep.
func TestFigureOptionsProgress(t *testing.T) {
	var lines []string
	o := Options{Trials: 1, FileBytes: 256 * 1024, Seed: 1, Verify: true,
		Progress: func(s string) { lines = append(lines, s) }}
	spec := &SweepSpec{Name: "figP", Title: "test", Axis: AxisPattern,
		Layout: "contiguous", Methods: []string{"tc"}, Patterns: []string{"rb"}}
	if _, err := spec.RunFull(o); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "figP pattern=rb") || !strings.Contains(lines[0], "MB/s") {
		t.Fatalf("progress %q", lines)
	}
}

package exp

import (
	"fmt"
	"strings"

	"ddio/internal/stats"
)

// Cell is one measured table entry: mean throughput over trials and its
// coefficient of variation.
type Cell struct {
	Mean float64 `json:"mean"`         // mean throughput over trials, MB/s
	CV   float64 `json:"cv,omitempty"` // coefficient of variation over trials
}

// Table is one reproduced figure or table: rows × columns of throughput
// cells, formatted like the paper reports them. A sweep result carries
// its table losslessly in JSON; CSV renders the means at fixed precision.
type Table struct {
	ID       string   `json:"id"`             // "fig3a", "fig7", "table1", ...
	Title    string   `json:"title"`          // one-line description
	RowLabel string   `json:"row_label"`      // "pattern" or the swept parameter
	Rows     []string `json:"rows"`           // row labels, outer cell index
	Cols     []string `json:"cols"`           // column labels, inner cell index
	Cells    [][]Cell `json:"cells"`          // measured grid, [row][col]
	Note     string   `json:"note,omitempty"` // optional caption line

	// Latency carries per-cell request-latency statistics (seconds, with
	// p50/p90/p99 populated), same [row][col] indexing as Cells but
	// without the trailing max-bw column. Populated only for workload
	// sweeps — open-arrival runs are latency studies — and omitted
	// otherwise, keeping classic sweep JSON byte-identical.
	Latency [][]stats.Summary `json:"latency,omitempty"`
}

// Format renders the table as aligned text (MB/s means; cv in
// parentheses when it exceeds 0.005).
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	w := len(t.RowLabel)
	for _, r := range t.Rows {
		if len(r) > w {
			w = len(r)
		}
	}
	fmt.Fprintf(&b, "%-*s", w+2, t.RowLabel)
	for _, c := range t.Cols {
		fmt.Fprintf(&b, "%14s", c)
	}
	b.WriteByte('\n')
	for i, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", w+2, r)
		for j := range t.Cols {
			c := t.Cells[i][j]
			if c.CV > 0.005 {
				fmt.Fprintf(&b, "%8.2f(%4.2f)", c.Mean, c.CV)
			} else {
				fmt.Fprintf(&b, "%14.2f", c.Mean)
			}
		}
		b.WriteByte('\n')
	}
	if t.Latency != nil {
		// Workload sweeps append a latency view: per-request p50/p90/p99
		// in milliseconds, same grid as the throughput block above.
		fmt.Fprintf(&b, "\nrequest latency p50/p90/p99 (ms)\n")
		fmt.Fprintf(&b, "%-*s", w+2, t.RowLabel)
		for j := range t.Latency[0] {
			fmt.Fprintf(&b, "%22s", t.Cols[j])
		}
		b.WriteByte('\n')
		for i, r := range t.Rows {
			fmt.Fprintf(&b, "%-*s", w+2, r)
			for _, s := range t.Latency[i] {
				fmt.Fprintf(&b, "%22s", fmt.Sprintf("%.2f/%.2f/%.2f",
					s.P50*1e3, s.P90*1e3, s.P99*1e3))
			}
			b.WriteByte('\n')
		}
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (means only).
func (t *Table) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", t.RowLabel)
	for _, c := range t.Cols {
		fmt.Fprintf(&b, ",%s", c)
	}
	b.WriteByte('\n')
	for i, r := range t.Rows {
		fmt.Fprintf(&b, "%s", r)
		for j := range t.Cols {
			fmt.Fprintf(&b, ",%.3f", t.Cells[i][j].Mean)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// MaxCV returns the largest coefficient of variation in the table (the
// paper quotes this per figure).
func (t *Table) MaxCV() float64 {
	var m float64
	for i := range t.Cells {
		for j := range t.Cells[i] {
			if t.Cells[i][j].CV > m {
				m = t.Cells[i][j].CV
			}
		}
	}
	return m
}

// Cell returns the cell at (row, col) by label; ok reports presence.
func (t *Table) Cell(row, col string) (Cell, bool) {
	for i, r := range t.Rows {
		if r != row {
			continue
		}
		for j, c := range t.Cols {
			if c == col {
				return t.Cells[i][j], true
			}
		}
	}
	return Cell{}, false
}

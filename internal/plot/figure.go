package plot

// figure.go adapts the repository's result types — sweep results,
// figure tables, event traces — onto the chart forms.

import (
	"fmt"

	"ddio/internal/exp"
	"ddio/internal/trace"
)

// SweepFigure renders an executed sweep as a paper-style figure: the
// swept axis along x, one line per method×pattern column, and the
// hardware ceiling as a dashed reference line — the SVG counterpart of
// the row-per-value tables Figures 5–8 print. Two-axis sweeps render as
// response-surface heatmaps instead (SweepHeatmap), and pattern-axis
// sweeps as the grouped bars of Figures 3–4 (TableBars).
func SweepFigure(res *exp.SweepResult) string {
	switch {
	case res.Spec.Axis == exp.AxisPattern:
		return TableBars(res.Table)
	case res.Spec.Axis2 != "":
		return SweepHeatmap(res)
	}
	return tableLines(res.Table, sweepSubtitle(res))
}

// sweepSubtitle builds the shared sweep-figure subtitle: spec name, the
// table note, and the fault-plan summary when one is armed.
func sweepSubtitle(res *exp.SweepResult) string {
	sub := res.Spec.Name
	if t := res.Table; t.Note != "" {
		sub = fmt.Sprintf("%s · %s", res.Spec.Name, t.Note)
	}
	if res.Spec.Faults != nil {
		sub = fmt.Sprintf("%s · faults: %s", sub, res.Spec.Faults.Summary())
	}
	return sub
}

// SweepHeatmap renders a two-axis sweep (a response surface) as
// small-multiple heat panels: one panel per method×pattern column,
// Values down the side, Values2 along the bottom, all panels on one
// shared color scale. Cells whose mean reaches 98% of the row's
// hardware ceiling carry a dashed outline — the surface's counterpart
// of the line figures' dashed max-bandwidth reference.
func SweepHeatmap(res *exp.SweepResult) string {
	s, t := res.Spec, res.Table
	c := &Heatmap{
		Title:    fmt.Sprintf("%s — %s", t.ID, t.Title),
		Subtitle: sweepSubtitle(res),
		XLabel:   s.Axis2,
		YLabel:   s.Axis,
		ZLabel:   "MB/s",
	}
	for _, v := range s.Values {
		c.YCats = append(c.YCats, fmt.Sprintf("%d", v))
	}
	for _, v := range s.Values2 {
		c.XCats = append(c.XCats, fmt.Sprintf("%d", v))
	}
	nx := len(s.Values2)
	for ci, col := range t.Cols {
		if col == "max-bw" {
			continue
		}
		p := HeatPanel{Label: col}
		for yi := range s.Values {
			zrow := make([]float64, nx)
			mrow := make([]bool, nx)
			for xi := 0; xi < nx; xi++ {
				row := t.Cells[yi*nx+xi]
				zrow[xi] = row[ci].Mean
				if ceiling := row[len(row)-1].Mean; ceiling > 0 && row[ci].Mean >= 0.98*ceiling {
					mrow[xi] = true
				}
			}
			p.Z = append(p.Z, zrow)
			p.Mark = append(p.Mark, mrow)
		}
		c.Panels = append(c.Panels, p)
	}
	return c.SVG()
}

// SweepTimeFigure renders a sweep's time-domain companion view: for a
// degradation sweep (per-cell completion times present), mean
// completion time per cell — under fault injection, recovery (retries,
// backoff, resend timeouts, straggler windows) stretches completion
// time even where throughput curves flatten. For a workload sweep
// (per-cell request-latency statistics present), p50 and p99 request
// latency per cell — open-arrival runs are latency studies, not
// bandwidth studies. Returns "" when the result carries neither.
func SweepTimeFigure(res *exp.SweepResult) string {
	if res.CellTime == nil {
		return sweepLatencyFigure(res)
	}
	t := res.Table
	sub := fmt.Sprintf("%s · completion time under faults", res.Spec.Name)
	if res.Spec.Faults != nil {
		sub = fmt.Sprintf("%s · faults: %s", sub, res.Spec.Faults.Summary())
	}
	c := &LineChart{
		Title:      fmt.Sprintf("%s — %s (completion time)", t.ID, t.Title),
		Subtitle:   sub,
		XLabel:     t.RowLabel,
		YLabel:     "completion time (s)",
		Categories: t.Rows,
	}
	for ci, col := range t.Cols {
		if col == "max-bw" {
			continue // a bandwidth ceiling has no time counterpart
		}
		se := XYSeries{Label: col}
		for vi := range t.Rows {
			se.Y = append(se.Y, res.CellTime[vi][ci].Mean)
		}
		c.Series = append(c.Series, se)
	}
	return c.SVG()
}

// sweepLatencyFigure renders a workload sweep's request-latency view:
// one p50 line (solid) and one p99 line (dashed) per method×pattern
// column, in milliseconds. Returns "" when the table carries no
// latency grid.
func sweepLatencyFigure(res *exp.SweepResult) string {
	t := res.Table
	if t.Latency == nil {
		return ""
	}
	c := &LineChart{
		Title:      fmt.Sprintf("%s — %s (request latency)", t.ID, t.Title),
		Subtitle:   fmt.Sprintf("%s · per-request latency percentiles", res.Spec.Name),
		XLabel:     t.RowLabel,
		YLabel:     "request latency (ms)",
		Categories: t.Rows,
	}
	for ci, col := range t.Cols {
		if ci >= len(t.Latency[0]) {
			continue // trailing max-bw: a ceiling has no latency counterpart
		}
		p50 := XYSeries{Label: col + " p50"}
		p99 := XYSeries{Label: col + " p99", Dash: true}
		for vi := range t.Rows {
			p50.Y = append(p50.Y, t.Latency[vi][ci].P50*1e3)
			p99.Y = append(p99.Y, t.Latency[vi][ci].P99*1e3)
		}
		c.Series = append(c.Series, p50, p99)
	}
	return c.SVG()
}

// tableLines renders a sweep-shaped table (numeric axis values as rows,
// method×pattern columns, optional trailing max-bw ceiling) as a line
// figure.
func tableLines(t *exp.Table, subtitle string) string {
	c := &LineChart{
		Title:      fmt.Sprintf("%s — %s", t.ID, t.Title),
		Subtitle:   subtitle,
		XLabel:     t.RowLabel,
		YLabel:     "throughput (MB/s)",
		Categories: t.Rows,
	}
	for ci, col := range t.Cols {
		se := XYSeries{Label: col}
		if col == "max-bw" {
			se.Label = "max bandwidth"
			se.Gray, se.Dash = true, true
		}
		for vi := range t.Rows {
			se.Y = append(se.Y, t.Cells[vi][ci].Mean)
		}
		c.Series = append(c.Series, se)
	}
	return c.SVG()
}

// TableBars renders a pattern-grid table (Figures 3–4: rows are access
// patterns, columns are file systems) as grouped bars. Any trailing
// max-bw column is dropped — a ceiling is a reference line, not a bar.
func TableBars(t *exp.Table) string {
	c := &GroupedBars{
		Title:      fmt.Sprintf("%s — %s", t.ID, t.Title),
		Subtitle:   t.Note,
		XLabel:     t.RowLabel,
		YLabel:     "throughput (MB/s)",
		Categories: t.Rows,
	}
	for ci, col := range t.Cols {
		if col == "max-bw" {
			continue
		}
		se := BarSeries{Label: col}
		for vi := range t.Rows {
			se.Y = append(se.Y, t.Cells[vi][ci].Mean)
		}
		c.Series = append(c.Series, se)
	}
	return c.SVG()
}

// UtilizationTimeline renders a traced run's per-disk busy intervals as
// a Gantt-style timeline — the picture behind the paper's mechanism
// claim: under disk-directed I/O the tracks are near-solid (disks
// continuously busy on double-buffered, schedule-ordered transfers);
// under traditional caching they are striped with idle gaps between
// cache misses. The subtitle carries the mean utilization so the claim
// is checkable at a glance.
func UtilizationTimeline(rec *trace.Recorder, title string) string {
	horizon := rec.End()
	tls := rec.DiskTimelines(horizon)
	var mean float64
	for _, tl := range tls {
		mean += tl.Util
	}
	if len(tls) > 0 {
		mean /= float64(len(tls))
	}
	c := &Timeline{
		Title: title,
		Subtitle: fmt.Sprintf("mean disk utilization %.0f%% over %.1f ms",
			mean*100, float64(horizon)/1e6),
		Horizon: float64(horizon) / 1e9,
	}
	for _, tl := range tls {
		row := TimelineRow{Label: tl.Name, Util: tl.Util}
		for _, iv := range tl.Busy {
			row.Spans = append(row.Spans, Span{Start: float64(iv.Start) / 1e9, End: float64(iv.End) / 1e9})
		}
		c.Rows = append(c.Rows, row)
	}
	return c.SVG()
}

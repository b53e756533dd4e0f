package exp

import (
	"fmt"
	"strings"
)

// LongCSV renders the sweep result in long ("tidy") format: one row per
// measured cell, one column per variable, carrying the full per-cell
// trial statistics (the wide Table.CSV keeps only means, one column per
// method×pattern). This is the shape external plotting tools
// (dataframes, gnuplot, vega) and internal/plot's sweep figures both
// consume: filter by method/pattern, facet by axis value, no header
// parsing. The trailing max_bw_mbps column repeats each row's hardware
// ceiling so bandwidth-bound cells are identifiable without a join.
//
// The column set adapts to what the sweep measured, keeping the classic
// single-axis output byte-identical (pinned by TestLongCSV): two-axis
// surfaces insert axis2,value2 after value, and workload sweeps append
// p50_ms,p90_ms,p99_ms request-latency columns after max_bw_mbps. On the
// pattern axis the value column holds the row's pattern.
func (r *SweepResult) LongCSV() string {
	var b strings.Builder
	s := r.Spec
	b.WriteString("sweep,figure,axis,value")
	if s.Axis2 != "" {
		b.WriteString(",axis2,value2")
	}
	b.WriteString(",method,pattern,n,mean_mbps,stddev,cv,min_mbps,max_mbps,max_bw_mbps")
	latency := r.Table != nil && r.Table.Latency != nil
	if latency {
		b.WriteString(",p50_ms,p90_ms,p99_ms")
	}
	b.WriteByte('\n')
	// Pattern-axis tables carry no max-bw column; their machine is fixed,
	// so one ceiling serves every row.
	ceiling := 0.0
	if s.Axis == AxisPattern {
		cfg := s.rowConfig(Options{}, axisPoint{})
		ceiling = cfg.MaxBandwidthMBps()
	}
	for vi, pt := range s.rowPoints() {
		if cells := r.Table.Cells[vi]; s.Axis != AxisPattern && len(cells) > 0 {
			ceiling = cells[len(cells)-1].Mean // trailing max-bw column
		}
		for ci, sum := range r.CellStats[vi] {
			mi, pattern := s.cellAt(vi, ci)
			method := s.Methods[mi]
			if s.Axis2 != "" {
				fmt.Fprintf(&b, "%s,%s,%s,%d,%s,%d", s.Name, r.Table.ID, s.Axis, pt.v, s.Axis2, pt.v2)
			} else { // the label is the axis value or, on the pattern axis, the pattern
				fmt.Fprintf(&b, "%s,%s,%s,%s", s.Name, r.Table.ID, s.Axis, pt.label)
			}
			fmt.Fprintf(&b, ",%s,%s,%d,%.3f,%.4f,%.4f,%.3f,%.3f,%.3f",
				method, pattern,
				sum.N, sum.Mean, sum.Stddev, sum.CV, sum.Min, sum.Max, ceiling)
			if latency {
				lat := r.Table.Latency[vi][ci]
				fmt.Fprintf(&b, ",%.3f,%.3f,%.3f", lat.P50*1e3, lat.P90*1e3, lat.P99*1e3)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

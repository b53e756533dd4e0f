package exp

import (
	"fmt"
	"slices"
	"strings"
)

// Headlines distills the paper's headline claims from regenerated
// figures, so reports can quote them mechanically:
//
//   - maximum DDIO/TC speedup on each layout (paper: 9.0x random,
//     16.2x contiguous);
//   - the presort gain on the random layout (paper: 41-50%);
//   - the fraction of aggregate peak bandwidth disk-directed I/O
//     reaches on the contiguous layout (paper: 93%);
//   - the contiguous-vs-random throughput ratio (paper: ~5x).
type Headlines struct {
	MaxSpeedupRandom   float64 // best DDIO+sort / TC, Figure 3
	MaxSpeedupRandomAt string  // pattern/record-size cell of that best
	MaxSpeedupContig   float64 // best DDIO / TC, Figure 4
	MaxSpeedupContigAt string  // pattern/record-size cell of that best
	PresortGainMin     float64 // (DDIO+sort / DDIO) - 1 across Figure 3
	PresortGainMax     float64 // largest presort gain across Figure 3
	PeakFraction       float64 // best DDIO contiguous / hardware ceiling
	ContigOverRandom   float64 // median DDIO contiguous / DDIO+sort random
}

// RegenerateHeadlines regenerates Figures 3 and 4 with the options'
// worker pool and distills the headline claims from them. The sweep
// results are returned too so callers can render them without a second
// pass.
func RegenerateHeadlines(o Options) (*Headlines, []*SweepResult, error) {
	fig3, err := Figure(o, "3")
	if err != nil {
		return nil, nil, err
	}
	fig4, err := Figure(o, "4")
	if err != nil {
		return nil, nil, err
	}
	base := o.base()
	h, err := ComputeHeadlines(tables(fig3), tables(fig4), base.MaxBandwidthMBps())
	if err != nil {
		return nil, nil, err
	}
	return h, append(fig3, fig4...), nil
}

func tables(results []*SweepResult) []*Table {
	ts := make([]*Table, len(results))
	for i, res := range results {
		ts[i] = res.Table
	}
	return ts
}

// ComputeHeadlines derives the headline numbers from the Figure 3 and
// Figure 4 tables (each a pair: 8-byte and 8192-byte records).
func ComputeHeadlines(fig3, fig4 []*Table, ceilingMBps float64) (*Headlines, error) {
	if len(fig3) != 2 || len(fig4) != 2 {
		return nil, fmt.Errorf("exp: headlines need both record-size tables of figures 3 and 4")
	}
	h := &Headlines{}
	var contigRatios []float64
	gains := 0 // presort gains seen so far
	for ti, t := range fig3 {
		for _, row := range t.Rows {
			tc, ok1 := t.Cell(row, "TC")
			dd, ok2 := t.Cell(row, "DDIO")
			dds, ok3 := t.Cell(row, "DDIO+sort")
			if !ok1 || !ok2 || !ok3 || tc.Mean == 0 || dd.Mean == 0 {
				continue
			}
			if sp := dds.Mean / tc.Mean; sp > h.MaxSpeedupRandom {
				h.MaxSpeedupRandom = sp
				h.MaxSpeedupRandomAt = fmt.Sprintf("%s, %s records", row, recordLabel(ti))
			}
			gain := dds.Mean/dd.Mean - 1
			if gains == 0 || gain < h.PresortGainMin {
				h.PresortGainMin = gain
			}
			if gains == 0 || gain > h.PresortGainMax {
				h.PresortGainMax = gain
			}
			gains++
			// Pair with the contiguous table for the layout ratio.
			if c4, ok := fig4[ti].Cell(row, "DDIO"); ok && dds.Mean > 0 {
				contigRatios = append(contigRatios, c4.Mean/dds.Mean)
			}
		}
	}
	for ti, t := range fig4 {
		for _, row := range t.Rows {
			tc, ok1 := t.Cell(row, "TC")
			dd, ok2 := t.Cell(row, "DDIO")
			if !ok1 || !ok2 || tc.Mean == 0 {
				continue
			}
			if sp := dd.Mean / tc.Mean; sp > h.MaxSpeedupContig {
				h.MaxSpeedupContig = sp
				h.MaxSpeedupContigAt = fmt.Sprintf("%s, %s records", row, recordLabel(ti))
			}
			if ceilingMBps > 0 {
				if f := dd.Mean / ceilingMBps; f > h.PeakFraction {
					h.PeakFraction = f
				}
			}
		}
	}
	if len(contigRatios) > 0 {
		h.ContigOverRandom = median(contigRatios)
	}
	return h, nil
}

func recordLabel(tableIndex int) string {
	if tableIndex == 0 {
		return "8-byte"
	}
	return "8192-byte"
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}

// Format renders the headline comparison against the paper's numbers.
func (h *Headlines) Format() string {
	var b strings.Builder
	b.WriteString("headline claims (measured vs paper)\n")
	fmt.Fprintf(&b, "  max DDIO+sort/TC speedup, random layout: %.1fx at %s (paper: up to 9.0x)\n",
		h.MaxSpeedupRandom, h.MaxSpeedupRandomAt)
	fmt.Fprintf(&b, "  max DDIO/TC speedup, contiguous layout:  %.1fx at %s (paper: up to 16.2x)\n",
		h.MaxSpeedupContig, h.MaxSpeedupContigAt)
	fmt.Fprintf(&b, "  presort gain on random layout:            %.0f%%..%.0f%% (paper: 41-50%%)\n",
		h.PresortGainMin*100, h.PresortGainMax*100)
	fmt.Fprintf(&b, "  best DDIO fraction of hardware ceiling:   %.0f%% (paper: 93%%)\n",
		h.PeakFraction*100)
	fmt.Fprintf(&b, "  contiguous over random (median, DDIO):    %.1fx (paper: ~5x)\n",
		h.ContigOverRandom)
	return b.String()
}

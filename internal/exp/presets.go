package exp

import (
	"fmt"
	"slices"
	"time"

	"ddio/internal/fault"
	"ddio/internal/hpf"
	"ddio/internal/workload"
)

// presets.go is the registry of built-in sweep specs. The *-paper
// presets ARE the canonical Figures 3–8: Figure runs them, and their
// expansion is pinned bit-identical to the original hard-coded
// generators by TestPaperPresetsMatchLegacyExpansion. The *-ext presets
// push each figure past the paper's 1994 hardware envelope (64 CPs,
// IOPs, and disks; finer record sizes), and ext-smoke is the tiny
// beyond-paper preset CI runs end to end. EXPERIMENTS.md documents each
// preset with its command line and expected runtime.

// sweepPatterns is the pattern set of Figures 5–8 (paper §5: four
// patterns representing the range of performance).
var sweepPatterns = []string{"ra", "rn", "rb", "rc"}

// Notes of the pattern-grid presets. Figure 4's ceiling is that of the
// fixed Table 1 machine (16 disks on 16 busses), pinned against the
// expanded cells by TestFig4NoteMatchesCeiling.
const (
	fig3Note = "ra throughput is normalized by the number of CPs, as in the paper"
	fig4Note = "peak aggregate disk throughput is 34.8 MB/s"
)

// patternGrid is the preset of one Figure 3 or 4 table: all 19 patterns
// under the given file systems at one layout and record size.
func patternGrid(id, layout string, record int, note string, methods ...string) *SweepSpec {
	return &SweepSpec{
		Name: id + "-paper", ID: id, Extends: id,
		Title:  fmt.Sprintf("throughput (MB/s), %s layout, %d-byte records", layout, record),
		Note:   note,
		Axis:   AxisPattern,
		Record: record,
		Layout: layout, Methods: methods, Patterns: hpf.AllPatterns(),
	}
}

// degradePlan is the fault template the degradation presets start from:
// a generous retry budget (the sweeps measure graceful degradation, not
// data loss) with drive-recovery and backoff costs that dominate a
// faulted request's latency. The swept axis overlays the fault
// intensity per row; everything here stays fixed.
func degradePlan() *fault.Plan {
	return &fault.Plan{
		DiskErrorLatency:  5 * time.Millisecond,
		StragglerSlowdown: 4,
		RetryLimit:        6,
		RetryBackoff:      2 * time.Millisecond,
	}
}

// skewWorkload is the workload template the wl-* presets sweep: a
// skewed, read-mostly request stream with open Poisson arrivals (the
// RatePerSec here is a placeholder — the wlrate axis overlays the swept
// rate per row). The shape deliberately exercises what whole-file
// collectives cannot: non-uniform access and an open arrival process.
func skewWorkload(requests int) *workload.Spec {
	frac := 0.8
	return &workload.Spec{
		Name: "skew-open",
		Phases: []workload.Phase{{
			Pattern:      workload.PatternSkew,
			Requests:     requests,
			Alpha:        1.2,
			ReadFraction: &frac,
			Arrival:      "poisson",
			RatePerSec:   1000,
		}},
	}
}

// presets is the built-in registry, paper ranges first. It is never
// handed out: Presets and LookupPreset return deep copies.
var presets = []*SweepSpec{
	patternGrid("fig3a", "random-blocks", 8, fig3Note, "tc", "ddio", "ddio-sort"),
	patternGrid("fig3b", "random-blocks", 8192, fig3Note, "tc", "ddio", "ddio-sort"),
	// Presort is a no-op on the contiguous layout, so Figure 4's DDIO
	// runs unsorted, as plotted in the paper.
	patternGrid("fig4a", "contiguous", 8, fig4Note, "tc", "ddio"),
	patternGrid("fig4b", "contiguous", 8192, fig4Note, "tc", "ddio"),
	{
		Name: "fig5-paper", ID: "fig5", Extends: "fig5",
		Title:  "throughput vs number of CPs (contiguous, 8 KB records)",
		Axis:   AxisCPs,
		Values: []int{1, 2, 4, 8, 16},
		Layout: "contiguous", Methods: []string{"ddio", "tc"}, Patterns: sweepPatterns,
	},
	{
		Name: "fig6-paper", ID: "fig6", Extends: "fig6",
		Title:  "throughput vs number of IOPs/busses (16 disks, contiguous, 8 KB records)",
		Axis:   AxisIOPs,
		Values: []int{1, 2, 4, 8, 16},
		Layout: "contiguous", Methods: []string{"ddio", "tc"}, Patterns: sweepPatterns,
	},
	{
		Name: "fig7-paper", ID: "fig7", Extends: "fig7",
		Title:  "throughput vs number of disks (1 IOP/bus, contiguous, 8 KB records)",
		Axis:   AxisDisks,
		Values: []int{1, 2, 4, 8, 16, 32},
		IOPs:   1,
		Layout: "contiguous", Methods: []string{"ddio", "tc"}, Patterns: sweepPatterns,
	},
	{
		Name: "fig8-paper", ID: "fig8", Extends: "fig8",
		Title:  "throughput vs number of disks (1 IOP/bus, random-blocks, 8 KB records)",
		Axis:   AxisDisks,
		Values: []int{1, 2, 4, 8, 16, 32},
		IOPs:   1,
		Layout: "random-blocks", Methods: []string{"ddio-sort", "tc"}, Patterns: sweepPatterns,
	},
	{
		Name: "fig5-ext", Extends: "fig5",
		Title:  "throughput vs number of CPs, extended to 64 (contiguous, 8 KB records)",
		Note:   "the torus grows past the paper's 6x6 once CPs+IOPs exceed 36 nodes",
		Axis:   AxisCPs,
		Values: []int{1, 2, 4, 8, 16, 32, 64},
		Layout: "contiguous", Methods: []string{"ddio", "tc"}, Patterns: sweepPatterns,
	},
	{
		Name: "fig6-ext", Extends: "fig6",
		Title:  "throughput vs number of IOPs/busses, extended to 64 (64 disks, contiguous, 8 KB records)",
		Note:   "64 disks redistributed among the IOPs (the paper redistributed 16)",
		Axis:   AxisIOPs,
		Values: []int{1, 2, 4, 8, 16, 32, 64},
		Disks:  64,
		Layout: "contiguous", Methods: []string{"ddio", "tc"}, Patterns: sweepPatterns,
	},
	{
		Name: "fig7-ext", Extends: "fig7",
		Title:  "throughput vs number of disks, extended to 64 (1 IOP/bus, contiguous, 8 KB records)",
		Note:   "one SCSI bus: its 10 MB/s ceiling binds well before 64 disks",
		Axis:   AxisDisks,
		Values: []int{1, 2, 4, 8, 16, 32, 64},
		IOPs:   1,
		Layout: "contiguous", Methods: []string{"ddio", "tc"}, Patterns: sweepPatterns,
	},
	{
		Name: "fig8-ext", Extends: "fig8",
		Title:  "throughput vs number of disks, extended to 64 (1 IOP/bus, random-blocks, 8 KB records)",
		Axis:   AxisDisks,
		Values: []int{1, 2, 4, 8, 16, 32, 64},
		IOPs:   1,
		Layout: "random-blocks", Methods: []string{"ddio-sort", "tc"}, Patterns: sweepPatterns,
	},
	{
		Name: "record-ext", Extends: "fig3/fig4 record-size axis",
		Title:  "throughput vs record size in bytes (contiguous, Table 1 machine)",
		Note:   "sweeps the record granularity the paper fixed at 8 B and 8 KB",
		Axis:   AxisRecord,
		Values: []int{8, 64, 512, 4096, 8192},
		Layout: "contiguous", Methods: []string{"ddio", "tc"}, Patterns: sweepPatterns,
	},
	{
		Name: "degrade-fault", Extends: "beyond-paper robustness study",
		Title:  "throughput vs transient disk-error rate, permille per request (random-blocks, 8 KB records)",
		Note:   "bounded retry recovers every error; throughput degrades, nothing is lost",
		Axis:   AxisFaultPM,
		Values: []int{0, 5, 10, 20, 50, 100},
		Layout: "random-blocks", Methods: []string{"ddio-sort", "tc", "2phase"}, Patterns: []string{"rb"},
		Faults: degradePlan(),
	},
	{
		Name: "degrade-straggler", Extends: "beyond-paper robustness study",
		Title:  "throughput vs number of 4x-slower disks (random-blocks, 8 KB records)",
		Note:   "stragglers are drawn per seed from a dedicated stream; 0 is the fault-free baseline",
		Axis:   AxisStragglers,
		Values: []int{0, 1, 2, 4, 8},
		Layout: "random-blocks", Methods: []string{"ddio-sort", "tc", "2phase"}, Patterns: []string{"rb"},
		Faults: degradePlan(),
	},
	{
		Name: "degrade-smoke", Extends: "degrade-fault (tiny CI smoke)",
		Title:  "throughput vs disk-error rate, permille (smoke axes, all fault models armed)",
		Note:   "CI smoke preset: 1 trial of a 1 MB file on a 4-CP/4-IOP/4-disk machine",
		Axis:   AxisFaultPM,
		Values: []int{0, 20, 80},
		CPs:    4, IOPs: 4, Disks: 4,
		Layout: "random-blocks", Methods: []string{"ddio", "tc"}, Patterns: []string{"rb"},
		Trials: 1, FileMB: 1,
		Faults: &fault.Plan{
			Stragglers:        1,
			StragglerSlowdown: 2,
			DiskErrorLatency:  2 * time.Millisecond,
			MsgLossRate:       0.02,
			ResendTimeout:     100 * time.Microsecond,
			SpikeRate:         0.01,
			SpikeLatency:      50 * time.Microsecond,
			RetryLimit:        6,
			RetryBackoff:      time.Millisecond,
		},
	},
	{
		Name: "wl-rate", Extends: "beyond-paper workload study",
		Title:  "throughput vs open-arrival rate, requests/s (skewed 80/20 mix, random-blocks, 8 KB records)",
		Note:   "closed whole-file collectives cannot chart offered load; this sweep can",
		Axis:   AxisWLRate,
		Values: []int{200, 500, 1000, 2000, 5000},
		Layout: "random-blocks", Methods: []string{"ddio-sort", "tc", "2phase"}, Patterns: []string{"rb"},
		Workload: skewWorkload(512),
	},
	{
		Name: "wl-smoke", Extends: "wl-rate (tiny CI smoke)",
		Title:  "throughput vs open-arrival rate, requests/s (smoke axes, skewed 80/20 mix)",
		Note:   "CI smoke preset: 1 trial of a 1 MB file on a 4-CP/4-IOP/4-disk machine",
		Axis:   AxisWLRate,
		Values: []int{200, 1000},
		CPs:    4, IOPs: 4, Disks: 4,
		Layout: "random-blocks", Methods: []string{"ddio-sort", "tc", "2phase"}, Patterns: []string{"rb"},
		Trials: 1, FileMB: 1,
		Workload: skewWorkload(96),
	},
	{
		Name: "surface-cps-disks", Extends: "fig5 × fig7 response surface",
		Title:   "throughput surface: CPs × disks (contiguous, 8 KB records)",
		Note:    "two-axis cross-product; renders as a heatmap per method×pattern",
		Axis:    AxisCPs,
		Values:  []int{1, 2, 4, 8, 16},
		Axis2:   AxisDisks,
		Values2: []int{1, 2, 4, 8, 16},
		Layout:  "contiguous", Methods: []string{"ddio", "tc"}, Patterns: []string{"rb", "rc"},
	},
	{
		Name: "surface-smoke", Extends: "surface-cps-disks (tiny CI smoke)",
		Title:   "throughput surface: CPs × disks (smoke axes)",
		Note:    "CI smoke preset: 1 trial of a 1 MB file, 2 IOPs",
		Axis:    AxisCPs,
		Values:  []int{2, 4},
		Axis2:   AxisDisks,
		Values2: []int{2, 4},
		IOPs:    2,
		Layout:  "contiguous", Methods: []string{"ddio", "tc"}, Patterns: []string{"rb"},
		Trials: 1, FileMB: 1,
	},
	{
		Name: "ext-smoke", Extends: "fig5 (tiny beyond-paper smoke)",
		Title:  "throughput vs number of CPs beyond the paper's 16 (smoke axes)",
		Note:   "CI smoke preset: 1 trial of a 1 MB file on a 4-IOP/4-disk machine",
		Axis:   AxisCPs,
		Values: []int{20, 24},
		IOPs:   4, Disks: 4,
		Layout: "contiguous", Methods: []string{"ddio"}, Patterns: []string{"ra", "rc"},
		Trials: 1, FileMB: 1,
	},
}

// Presets returns deep copies of the built-in sweep specs, paper ranges
// first, safe for the caller to modify.
func Presets() []*SweepSpec {
	out := make([]*SweepSpec, len(presets))
	for i, s := range presets {
		out[i] = s.clone()
	}
	return out
}

// LookupPreset returns a deep copy of the named built-in preset.
func LookupPreset(name string) (*SweepSpec, bool) {
	for _, s := range presets {
		if s.Name == name {
			return s.clone(), true
		}
	}
	return nil, false
}

// clone deep-copies the spec: its slices and its fault and workload
// templates.
func (s *SweepSpec) clone() *SweepSpec {
	c := *s
	c.Values = slices.Clone(s.Values)
	c.Values2 = slices.Clone(s.Values2)
	c.Methods = slices.Clone(s.Methods)
	c.Patterns = slices.Clone(s.Patterns)
	if s.Faults != nil {
		c.Faults = s.Faults.Clone()
	}
	if s.Workload != nil {
		c.Workload = s.Workload.Clone()
	}
	return &c
}

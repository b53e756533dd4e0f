package exp

import (
	"fmt"
	"strings"

	"ddio/internal/fault"
	"ddio/internal/stats"
	"ddio/internal/workload"
)

// Options control figure regeneration. The paper used five trials of a
// 10 MB file; smaller settings reproduce the same shapes faster (the
// paper itself notes 10 MB was chosen over 100/1000 MB to save
// simulation time, with qualitatively similar results).
type Options struct {
	Trials    int   // independent trials per data point
	FileBytes int64 // transfer size per run
	Seed      int64 // base seed; trial seeds derive from it
	Verify    bool  // verify every byte in every run
	// Workers bounds how many experiment runs execute concurrently;
	// <= 0 selects GOMAXPROCS. Tables are bit-identical for any worker
	// count (results are slotted by position, seeds by trial index).
	Workers int
	// Progress, if non-nil, receives one line per completed cell.
	// Lines are serialized; with Workers > 1 cells complete (and
	// report) out of table order.
	Progress func(string)
	// Faults, when non-nil, is the fault plan injected into every run
	// (see Config.Faults). It reaches the runs as the sweep's fault-plan
	// template (SweepSpec.Resolve); sweep specs with their own template
	// override it.
	Faults *fault.Plan
	// Workload, when non-nil, is the request-stream spec every run
	// executes instead of the classic whole-file transfer (see
	// Config.Workload). It reaches the runs as the sweep's workload
	// template (SweepSpec.Resolve); sweep specs with their own template
	// override it, and specs that vary the pattern reject it.
	Workload *workload.Spec
	// RunCell, when non-nil, replaces the per-cell execution function
	// (default: Run) on the runner these options build — the serving
	// layer's cache/singleflight hook (see Runner.SetRunFunc for the
	// contract fn must keep).
	RunCell func(Config) (*Result, error)
}

// DefaultOptions mirrors the paper's experimental design.
func DefaultOptions() Options {
	return Options{Trials: 5, FileBytes: 10 * MiB, Seed: 42, Verify: true}
}

func (o Options) base() Config {
	cfg := DefaultConfig()
	cfg.FileBytes = o.FileBytes
	cfg.Seed = o.Seed
	cfg.Verify = o.Verify
	return cfg
}

func (o Options) runner() *Runner {
	r := NewRunner(o.Workers, o.Progress)
	if o.RunCell != nil {
		r.SetRunFunc(o.RunCell)
	}
	return r
}

func (o Options) trials() int {
	if o.Trials < 1 {
		return 1
	}
	return o.Trials
}

// cellAgg aggregates one table cell from its trial results as they
// complete on the pool. Trial MBps values are slotted by trial index, so
// the mean and CV are summed in the same order as a sequential run and
// the resulting cells are bit-identical.
type cellAgg struct {
	mbps []float64
	secs []float64       // completion times, for degradation sweeps
	lat  []stats.Summary // per-trial request-latency summaries, for workload sweeps
	left int
}

func newCellAggs(n, trials int) []cellAgg {
	aggs := make([]cellAgg, n)
	for i := range aggs {
		aggs[i] = cellAgg{
			mbps: make([]float64, trials),
			secs: make([]float64, trials),
			lat:  make([]stats.Summary, trials),
			left: trials,
		}
	}
	return aggs
}

// done records one trial and reports whether the cell is complete.
func (a *cellAgg) done(trial int, res *Result) bool {
	a.mbps[trial] = res.MBps
	a.secs[trial] = res.Elapsed.Seconds()
	a.lat[trial] = res.ReqLatency
	a.left--
	return a.left == 0
}

func (a *cellAgg) cell() Cell { return Cell{Mean: mean(a.mbps), CV: cv(a.mbps)} }

// paperFigures maps each of the paper's figures to the *-paper presets
// that regenerate it, one table per preset, in table order.
var paperFigures = map[string][]string{
	"3": {"fig3a-paper", "fig3b-paper"},
	"4": {"fig4a-paper", "fig4b-paper"},
	"5": {"fig5-paper"},
	"6": {"fig6-paper"},
	"7": {"fig7-paper"},
	"8": {"fig8-paper"},
}

// Figure regenerates one of the paper's figures, "3" through "8", by
// running its presets: Figures 3 and 4 are the pattern grids (8-byte and
// 8192-byte records on the random-blocks and contiguous layouts),
// Figures 5–8 the machine-shape sweeps over CPs, IOPs and disks.
func Figure(o Options, fig string) ([]*SweepResult, error) {
	names, ok := paperFigures[fig]
	if !ok {
		return nil, fmt.Errorf("exp: no paper figure %q (want 3 to 8)", fig)
	}
	results := make([]*SweepResult, len(names))
	for i, name := range names {
		s, _ := LookupPreset(name)
		res, err := s.RunFull(o)
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return results, nil
}

// Table1 renders the simulator parameters (the paper's Table 1).
func Table1() string {
	cfg := DefaultConfig()
	spec := cfg.Disk
	var b strings.Builder
	b.WriteString("table1 — simulator parameters\n")
	rows := [][2]string{
		{"MIMD, distributed-memory", fmt.Sprintf("%d processors", cfg.NCP+cfg.NIOP)},
		{"Compute processors (CPs)", fmt.Sprintf("%d *", cfg.NCP)},
		{"I/O processors (IOPs)", fmt.Sprintf("%d *", cfg.NIOP)},
		{"CPU type", "50 MHz RISC (calibrated software costs)"},
		{"Disks", fmt.Sprintf("%d *", cfg.NDisks)},
		{"Disk type", spec.Name},
		{"Disk capacity", fmt.Sprintf("%.1f GB", float64(spec.Capacity())/1e9)},
		{"Disk peak transfer rate", fmt.Sprintf("%.2f Mbytes/s", spec.SustainedRate()/MiB)},
		{"File-system block size", fmt.Sprintf("%d KB", cfg.BlockSize/1024)},
		{"I/O busses (one per IOP)", fmt.Sprintf("%d *", cfg.NIOP)},
		{"I/O bus type", "SCSI"},
		{"I/O bus peak bandwidth", fmt.Sprintf("%.0f Mbytes/s", cfg.BusBandwidth/1e6)},
		{"Interconnect topology", fmt.Sprintf("%dx%d torus", cfg.Net.Width, cfg.Net.Height)},
		{"Interconnect bandwidth", fmt.Sprintf("%.0f*10^6 bytes/s bidirectional", cfg.Net.LinkBandwidth/1e6)},
		{"Interconnect latency", fmt.Sprintf("%v per router", cfg.Net.RouterDelay)},
		{"Routing", "wormhole"},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-28s %s\n", r[0], r[1])
	}
	b.WriteString("  (* varied in some experiments)\n")
	return b.String()
}

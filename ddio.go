// Package ddio reproduces "Disk-directed I/O for MIMD Multiprocessors"
// (David Kotz, OSDI 1994): a complete simulated MIMD multiprocessor —
// HP 97560 disks, SCSI busses, a wormhole-routed torus interconnect,
// compute and I/O processors — together with three parallel file
// systems: the paper's traditional-caching baseline, its disk-directed
// I/O contribution (with and without physical presorting), and the
// contemporaneous two-phase I/O alternative.
//
// The top-level API runs whole-file transfer experiments:
//
//	cfg := ddio.DefaultConfig()       // the paper's Table 1 machine
//	cfg.Method = ddio.DiskDirectedSort
//	cfg.Pattern = "rc"                // HPF CYCLIC, Figure 2
//	res, err := ddio.Run(cfg)
//	fmt.Printf("%.1f MB/s\n", res.MBps)
//
// Every simulated transfer moves real bytes and is verified end to end.
// Figure regenerates the paper's evaluation; README.md maps
// each figure to its command and benchmark, and ARCHITECTURE.md tours
// the simulation stack underneath.
package ddio

import (
	"ddio/internal/disk"
	"ddio/internal/exp"
	"ddio/internal/fault"
	"ddio/internal/hpf"
	"ddio/internal/pfs"
	"ddio/internal/plot"
	"ddio/internal/serve"
	"ddio/internal/trace"
	"ddio/internal/workload"
)

// MiB is 2^20 bytes; the paper's "Mbytes/s" are MiB/s.
const MiB = exp.MiB

// Config describes one experiment: machine shape, file, access pattern,
// layout, and file-system method. See DefaultConfig.
type Config = exp.Config

// Result reports one experiment's throughput and substrate metrics.
type Result = exp.Result

// Trial aggregates replicated runs (mean throughput and coefficient of
// variation).
type Trial = exp.Trial

// Method selects the file system under test.
type Method = exp.Method

// File-system methods.
const (
	// TraditionalCaching is the Intel CFS-style baseline (Figure 1a).
	TraditionalCaching = exp.TraditionalCaching
	// DiskDirected is disk-directed I/O without the block presort.
	DiskDirected = exp.DiskDirected
	// DiskDirectedSort is full disk-directed I/O (Figure 1c).
	DiskDirectedSort = exp.DiskDirectedSort
	// TwoPhase is del Rosario/Bordawekar/Choudhary two-phase I/O (§7.1).
	TwoPhase = exp.TwoPhase
)

// LayoutKind selects the physical placement of file blocks on disk.
type LayoutKind = pfs.LayoutKind

// Disk layouts (paper §5).
const (
	Contiguous   = pfs.Contiguous
	RandomBlocks = pfs.RandomBlocks
)

// DiskSpec describes a disk-drive model.
type DiskSpec = disk.Spec

// Table is one regenerated figure or table.
type Table = exp.Table

// Options control figure regeneration (trials, file size, seed).
type Options = exp.Options

// SweepSpec declaratively describes a machine/workload scale sweep: one
// axis (CPs, IOPs, disks, or record size) crossed with a pattern ×
// method grid. Figures 5–8 are built-in specs; see SweepPresets and
// EXPERIMENTS.md.
type SweepSpec = exp.SweepSpec

// SweepResult is the machine-readable outcome of one executed sweep:
// the spec, the rendered table, and per-cell trial statistics.
type SweepResult = exp.SweepResult

// DefaultConfig returns the paper's Table 1 configuration: 16 CPs and 16
// IOPs on a 6×6 torus, 16 HP 97560 disks on one SCSI bus per IOP, and a
// 10 MB file in 8 KB blocks.
func DefaultConfig() Config { return exp.DefaultConfig() }

// DefaultOptions mirrors the paper's experimental design: five trials of
// a 10 MB file.
func DefaultOptions() Options { return exp.DefaultOptions() }

// HP97560 returns the paper's disk model: a 1.3 GB HP 97560 (Ruemmler &
// Wilkes parameters).
func HP97560() *DiskSpec { return disk.HP97560() }

// Runner executes independent experiment runs on a bounded worker pool,
// with results slotted by index so output is bit-identical to a
// sequential run regardless of worker count.
type Runner = exp.Runner

// NewRunner returns a runner with the given concurrency (workers <= 0
// selects GOMAXPROCS) and optional serialized progress sink.
func NewRunner(workers int, progress func(string)) *Runner {
	return exp.NewRunner(workers, progress)
}

// Run executes one experiment.
func Run(cfg Config) (*Result, error) { return exp.Run(cfg) }

// RunTrials replicates cfg n times with independent seeds and aggregates
// throughput.
func RunTrials(cfg Config, n int) (*Trial, error) { return exp.Trials(cfg, n) }

// ParseMethod converts a method name ("tc", "ddio", "ddio-sort",
// "2phase") to a Method.
func ParseMethod(s string) (Method, error) { return exp.ParseMethod(s) }

// ParseLayout converts a layout name ("contiguous", "random") to its
// kind.
func ParseLayout(s string) (LayoutKind, error) { return pfs.ParseLayout(s) }

// ReadPatterns returns the paper's read patterns in display order.
func ReadPatterns() []string { return hpf.ReadPatterns() }

// WritePatterns returns the paper's write patterns in display order.
func WritePatterns() []string { return hpf.WritePatterns() }

// AllPatterns returns every pattern of Figures 3 and 4.
func AllPatterns() []string { return hpf.AllPatterns() }

// Figure regenerates one of the paper's figures, "3" through "8", by
// running its *-paper sweep presets: the 8-byte and 8192-byte record
// sweeps for Figures 3 and 4, one sweep for each of Figures 5–8.
func Figure(o Options, fig string) ([]*SweepResult, error) { return exp.Figure(o, fig) }

// Table1 renders the simulator parameters (the paper's Table 1).
func Table1() string { return exp.Table1() }

// SweepPresets returns the built-in sweep specs: the fig3a-paper…
// fig8-paper presets behind Figure and the extended presets that push
// the machine-shape figures past the paper's 16 CPs/IOPs/disks.
func SweepPresets() []*SweepSpec { return exp.Presets() }

// LookupSweepPreset returns a fresh copy of the named built-in preset.
func LookupSweepPreset(name string) (*SweepSpec, bool) { return exp.LookupPreset(name) }

// ParseSweepSpec parses and validates a JSON sweep-spec file (see
// EXPERIMENTS.md for the format).
func ParseSweepSpec(data []byte) (*SweepSpec, error) { return exp.ParseSweepSpec(data) }

// FaultPlan declares deterministic fault injection for a run: disk
// stragglers, transient disk errors, interconnect message loss and
// latency spikes, plus the servers' bounded-retry recovery policy (see
// internal/fault). Assign one to Config.Faults; nil injects nothing and
// leaves runs byte-identical to a build without fault injection.
type FaultPlan = fault.Plan

// FaultTotals aggregates a run's injected faults and recovery outcomes
// (Result.Faults). DiskErrors always equals Retries + Exhausted: every
// injected error is either retried away or reported as a loss, never
// silent.
type FaultTotals = exp.FaultTotals

// ParseFaultPlan parses and validates a JSON fault plan (durations are
// nanosecond integers; see EXPERIMENTS.md).
func ParseFaultPlan(data []byte) (*FaultPlan, error) { return fault.ParsePlan(data) }

// ResolveFaultPlan turns a -faults style argument — inline JSON (starts
// with '{') or a path to a plan file — into a validated plan.
func ResolveFaultPlan(arg string) (*FaultPlan, error) { return fault.ResolvePlan(arg) }

// WorkloadSpec declares per-CP request streams for a run — synthetic
// access patterns (uniform, skewed, hotspot, Zipf, plus the paper's
// collective patterns), record-size mixes, read/write fractions, and
// arrival processes (closed-loop think time or open Poisson), in
// multi-phase sequences separated by barriers — or a replayed block
// trace (see internal/workload). Assign one to Config.Workload; nil
// keeps the classic whole-file collective transfer and leaves runs
// byte-identical to a build without the workload layer.
type WorkloadSpec = workload.Spec

// WorkloadPhase is one phase of a WorkloadSpec.
type WorkloadPhase = workload.Phase

// ParseWorkload parses and validates a JSON workload spec (durations
// are nanosecond integers; see EXPERIMENTS.md "Workloads and trace
// replay").
func ParseWorkload(data []byte) (*WorkloadSpec, error) { return workload.Parse(data) }

// ResolveWorkload turns a -workload style argument — inline JSON
// (starts with '{'), a path to a spec file, or a path to a .csv block
// trace — into a validated spec.
func ResolveWorkload(arg string) (*WorkloadSpec, error) { return workload.ResolveSpec(arg) }

// LoadTrace reads a CSV block trace (time,node,op,offset,bytes; see
// EXPERIMENTS.md) into a single-phase replay spec.
func LoadTrace(path string) (*WorkloadSpec, error) { return workload.LoadTrace(path) }

// TraceRecorder is a passive event-trace recorder (see internal/trace):
// attached to a run it captures disk busy/idle intervals, queue depths,
// request lifecycles, cache occupancy, and interconnect messages as a
// deterministic seq-ordered stream with JSONL/CSV emitters and derived
// utilization, bandwidth, and latency views.
type TraceRecorder = trace.Recorder

// TraceEvent is one trace record.
type TraceEvent = trace.Event

// NewTraceRecorder returns an empty enabled recorder; assign it to
// Config.Trace (or use TracedRun) before running.
func NewTraceRecorder() *TraceRecorder { return trace.New() }

// TracedRun executes one experiment with a fresh trace recorder
// attached. Tracing is passive: the run fires the identical event
// sequence and reports the identical throughput as an untraced run.
func TracedRun(cfg Config) (*Result, *TraceRecorder, error) { return exp.TracedRun(cfg) }

// SweepFigureSVG renders an executed sweep as its paper-style SVG figure
// (line figure, grouped bars or heatmap): the <spec>.svg artifact of
// cmd/figures -plot.
func SweepFigureSVG(res *SweepResult) string { return sweepSVG(res, "svg") }

// SweepTimeFigureSVG renders a degradation or workload sweep's
// time-domain companion figure, the <spec>-time.svg artifact (empty for
// other sweeps, which carry no per-cell times or latencies).
func SweepTimeFigureSVG(res *SweepResult) string { return sweepSVG(res, "timesvg") }

// sweepSVG renders one SVG entry of the sweep artifact table, which
// cannot fail.
func sweepSVG(res *SweepResult, format string) string {
	a, _ := plot.LookupArtifact(format)
	svg, _ := a.Render(res)
	return string(svg)
}

// UtilizationTimelineSVG renders a traced run's per-disk busy intervals
// as a Gantt-style SVG timeline — the picture behind the paper's
// "disk-directed I/O keeps the disks busy" claim.
func UtilizationTimelineSVG(rec *TraceRecorder, title string) string {
	return plot.UtilizationTimeline(rec, title)
}

// CellKey returns the canonical cache identity of one experiment cell:
// a hex SHA-256 over the resolved configuration (method, pattern,
// machine shape, tuning, seed, fault plan). Because every run is a pure
// function of its Config, equal keys mean byte-identical results — the
// invariant the sweep server's cell cache is built on. Two configs that
// differ only in JSON field order hash identically; any change to seed,
// trial, or a tuning knob changes the key.
func CellKey(cfg Config) string { return exp.CellKey(cfg) }

// ServerConfig tunes a sweep server: cache capacity, queue depth,
// concurrency, and the option defaults applied to requests.
type ServerConfig = serve.Config

// Server is the ddiosimd daemon as an embeddable http.Handler: POST
// /v1/sweeps and /v1/runs with cell-level LRU caching, singleflight
// deduplication, bounded-queue admission control, async jobs, and a
// /metrics endpoint. See cmd/ddiosimd and EXPERIMENTS.md "Serving
// sweeps".
type Server = serve.Server

// NewServer returns a sweep server; zero-valued config fields select
// the defaults (cache 4096 cells, queue 16, concurrency 2, and the
// figures CLI option defaults).
func NewServer(cfg ServerConfig) *Server { return serve.New(cfg) }

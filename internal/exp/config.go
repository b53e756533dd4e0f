// Package exp is the experiment harness: it assembles the simulated
// machine from a Config (Table 1 defaults), runs one whole-file transfer
// under the selected file system, verifies the data end to end, and
// reports throughput plus substrate metrics. The figure generators that
// regenerate the paper's evaluation live in figures.go; the declarative
// scale-sweep layer (SweepSpec, of which Figures 5–8 are preset
// instances) lives in sweep.go and presets.go.
package exp

import (
	"fmt"
	"time"

	"ddio/internal/core"
	"ddio/internal/disk"
	"ddio/internal/fault"
	"ddio/internal/netsim"
	"ddio/internal/pfs"
	"ddio/internal/tcfs"
	"ddio/internal/trace"
	"ddio/internal/twophase"
	"ddio/internal/workload"
)

// MiB matches the paper's "Mbytes": the quoted disk peak of 2.34
// Mbytes/s is the HP 97560's 2.46e6 B/s expressed in 2^20-byte units.
const MiB = 1 << 20

// Method selects the file-system implementation under test.
type Method int

// Methods.
const (
	// TraditionalCaching is the baseline of Figure 1a.
	TraditionalCaching Method = iota
	// DiskDirected is disk-directed I/O without the block-list presort.
	DiskDirected
	// DiskDirectedSort is disk-directed I/O with the presort
	// (Figure 1c as written).
	DiskDirectedSort
	// TwoPhase is del Rosario/Bordawekar/Choudhary two-phase I/O,
	// which the paper discusses (§7.1) but did not simulate.
	TwoPhase
)

// String returns the method's display name as figures label it.
func (m Method) String() string {
	switch m {
	case TraditionalCaching:
		return "TC"
	case DiskDirected:
		return "DDIO"
	case DiskDirectedSort:
		return "DDIO+sort"
	case TwoPhase:
		return "2phase"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ParseMethod converts a method name ("tc", "ddio", "ddio-sort",
// "2phase") to a Method.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "tc", "TC", "caching":
		return TraditionalCaching, nil
	case "ddio", "DDIO":
		return DiskDirected, nil
	case "ddio-sort", "DDIO+sort", "sort":
		return DiskDirectedSort, nil
	case "2phase", "twophase":
		return TwoPhase, nil
	}
	return 0, fmt.Errorf("exp: unknown method %q", s)
}

// Config describes one experiment: machine shape, file, pattern, layout,
// and method, with all substrate parameters exposed for ablations.
type Config struct {
	Method  Method // file system under test
	Pattern string // paper shorthand, e.g. "ra", "rcb", "wb"

	NCP    int // compute processors
	NIOP   int // I/O processors, one SCSI bus each
	NDisks int // disks, distributed round-robin over the IOPs

	FileBytes  int64          // whole-file transfer size
	BlockSize  int            // file-system block size
	RecordSize int            // application record size
	Layout     pfs.LayoutKind // physical block placement

	Seed   int64 // root seed for layout and network jitter streams
	Verify bool  // verify every byte end to end after the run

	// Disk is the drive model. The Spec is shared by every disk of the
	// run — and, when a Config is replicated across trials, by
	// concurrent runs on the Runner's pool — so it must not be mutated
	// once experiments start (mutate a copy, as cmd/ddiosim does).
	Disk         *disk.Spec
	Net          netsim.Config // torus interconnect parameters
	BusBandwidth float64       // SCSI bus bandwidth, bytes/s
	BusOverhead  time.Duration // per-transfer bus arbitration cost
	BarrierCost  time.Duration // collective-operation entry cost

	TC tcfs.Params     // traditional-caching tuning
	DD core.Params     // disk-directed I/O tuning
	TP twophase.Params // two-phase I/O tuning

	// Trace, when non-nil, receives the run's event trace (disk service
	// intervals, queue depths, request lifecycles, cache occupancy,
	// interconnect messages — see internal/trace). Tracing is passive:
	// the run fires the identical events either way. A recorder belongs
	// to exactly one run — Runner.Trials strips it from replicated
	// configs (they would race on the pool), and configs handed to
	// RunAll directly must not share one. TracedRun wraps the
	// single-run case.
	Trace *trace.Recorder

	// Faults, when non-nil and enabled, injects deterministic faults
	// (disk stragglers, transient disk errors, interconnect loss and
	// latency spikes — see internal/fault) and arms the servers'
	// bounded-retry recovery with the plan's policy. nil injects nothing
	// and leaves the run byte-identical to a build without fault
	// injection. The plan is read-only during runs and may be shared
	// across trials and Runner workers.
	Faults *fault.Plan

	// Workload, when non-nil and enabled, replaces the classic
	// whole-file collective transfer with the declared request streams
	// (synthetic phases, trace replay — see internal/workload), driven
	// through the selected method. nil (or a phase-less spec) leaves
	// the run byte-identical to a build without the workload layer.
	// The spec is read-only during runs and may be shared across trials
	// and Runner workers.
	Workload *workload.Spec
}

// DefaultConfig returns the paper's Table 1 configuration: 16 CPs, 16
// IOPs with one SCSI bus and one HP 97560 each, a 10 MB file in 8 KB
// blocks, 8 KB records, the ra pattern, traditional caching, and the
// random-blocks layout.
func DefaultConfig() Config {
	return Config{
		Method:       TraditionalCaching,
		Pattern:      "ra",
		NCP:          16,
		NIOP:         16,
		NDisks:       16,
		FileBytes:    10 * MiB,
		BlockSize:    8 * 1024,
		RecordSize:   8 * 1024,
		Layout:       pfs.RandomBlocks,
		Seed:         1,
		Verify:       true,
		Disk:         disk.HP97560(),
		Net:          netsim.DefaultConfig(),
		BusBandwidth: 10e6,
		BusOverhead:  100 * time.Microsecond,
		BarrierCost:  50 * time.Microsecond,
		TC:           tcfs.DefaultParams(),
		DD:           core.DefaultParams(),
		TP:           twophase.DefaultParams(),
	}
}

// ConfigError is the typed validation error Config.Validate returns:
// which field (or field combination) is impossible, and why. Err, when
// non-nil, carries the underlying layer's error (fault plans, workload
// specs) for errors.Is/As chains.
type ConfigError struct {
	Field  string // the offending field, e.g. "record_size"
	Reason string
	Err    error // underlying cause, when the failure came from a sub-plan
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("exp: config %s: %s", e.Field, e.Reason)
}

// Unwrap exposes the underlying cause for errors.Is/As.
func (e *ConfigError) Unwrap() error { return e.Err }

func cfgErr(field, format string, args ...any) *ConfigError {
	return &ConfigError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Validate checks internal consistency: every impossible combination —
// sizes that cannot tile the file, records larger than the file, fault
// or workload plans that do not fit the machine — is reported as a
// typed *ConfigError before any simulation starts, never by a
// mid-run panic.
func (c *Config) Validate() error {
	switch {
	case c.NCP < 1 || c.NIOP < 1 || c.NDisks < 1:
		return cfgErr("machine", "need at least one CP, IOP and disk (have %d/%d/%d)", c.NCP, c.NIOP, c.NDisks)
	case c.FileBytes <= 0:
		return cfgErr("file_bytes", "file size %d must be positive", c.FileBytes)
	case c.BlockSize <= 0:
		return cfgErr("block_size", "block size %d must be positive", c.BlockSize)
	case c.RecordSize <= 0:
		return cfgErr("record_size", "record size %d must be positive", c.RecordSize)
	case int64(c.BlockSize) > c.FileBytes:
		return cfgErr("block_size", "block size %d exceeds file size %d", c.BlockSize, c.FileBytes)
	case int64(c.RecordSize) > c.FileBytes:
		return cfgErr("record_size", "record size %d exceeds file size %d", c.RecordSize, c.FileBytes)
	case c.FileBytes%int64(c.BlockSize) != 0:
		return cfgErr("file_bytes", "file size %d not a multiple of block size %d", c.FileBytes, c.BlockSize)
	case c.FileBytes%int64(c.RecordSize) != 0:
		return cfgErr("file_bytes", "file size %d not a multiple of record size %d", c.FileBytes, c.RecordSize)
	case c.Disk == nil:
		return cfgErr("disk", "no disk spec")
	case c.BlockSize%c.Disk.SectorSize != 0:
		return cfgErr("block_size", "block size %d not a multiple of sector size %d", c.BlockSize, c.Disk.SectorSize)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(c.NDisks); err != nil {
			return &ConfigError{Field: "faults", Reason: err.Error(), Err: err}
		}
	}
	if c.Workload.Enabled() {
		shape := workload.Shape{
			NCP:        c.NCP,
			FileBytes:  c.FileBytes,
			BlockSize:  c.BlockSize,
			RecordSize: c.RecordSize,
		}
		if err := c.Workload.Validate(&shape); err != nil {
			return &ConfigError{Field: "workload", Reason: err.Error(), Err: err}
		}
	}
	return nil
}

// label names what the run transfers, for errors and titles: the
// pattern of a classic run, the workload's summary otherwise.
func (c *Config) label() string {
	if c.Workload.Enabled() {
		return c.Workload.Summary()
	}
	return c.Pattern
}

// NumBlocks returns the file length in blocks.
func (c *Config) NumBlocks() int { return int(c.FileBytes / int64(c.BlockSize)) }

// MaxBandwidthMBps returns the hardware ceiling for this configuration
// in MiB/s: the disks' aggregate sustained rate or the busses' aggregate
// bandwidth, whichever binds (the "Max bandwidth" line of Figures 5–8).
func (c *Config) MaxBandwidthMBps() float64 {
	diskBW := float64(c.NDisks) * c.Disk.SustainedRate()
	busBW := float64(c.NIOP) * c.BusBandwidth
	if busBW < diskBW {
		return busBW / MiB
	}
	return diskBW / MiB
}

// Package core implements the paper's primary contribution:
// disk-directed I/O (Figure 1c). The compute processors issue one
// collective request describing the whole transfer; every I/O processor
// independently derives the set of its local disk blocks the request
// touches, optionally presorts them by physical location, and streams
// data with two buffers per disk — Memput DMA messages toward CP memory
// on reads, Memget round-trips from CP memory on writes — overlapping
// disk, bus, and network the entire time. One request per IOP replaces
// the per-chunk request storm of the traditional system, which is where
// the 16× gains of the paper come from.
package core

import (
	"time"

	"ddio/internal/disk"
	"ddio/internal/fault"
)

// Params are the disk-directed-I/O software costs and policy knobs.
type Params struct {
	// CP-side cost of building and multicasting the collective request.
	RequestCPU time.Duration
	// IOP-side cost of receiving the request and spawning the worker.
	IOPStartCPU time.Duration
	// Per-local-block planning cost (computing and sorting the block
	// list, Figure 1c's "sort the disk blocks to optimize disk
	// movement").
	PlanPerBlockCPU time.Duration
	// Per-message DMA setup costs on the IOP.
	MemputCPU time.Duration
	MemgetCPU time.Duration
	// CP-side DMA engine time to service one Memget (no software
	// thread is involved).
	MemgetRemoteCPU time.Duration
	// Per-extra-segment cost when gather/scatter messages are enabled.
	GatherSegmentCPU time.Duration

	// BuffersPerDisk is the number of one-block buffers (and buffer
	// threads) per local disk (paper: 2, double buffering).
	BuffersPerDisk int
	// Presort orders each disk's block list by physical location
	// instead of file order.
	Presort bool
	// GatherScatter batches all runs of a block destined to the same
	// CP into a single message (the paper's "future work" extension).
	GatherScatter bool
	// Retry bounds resubmission of transiently failed disk requests
	// (fault injection only; the zero policy never retries).
	Retry fault.RetryPolicy
}

// DefaultParams returns calibrated defaults (presort off; experiment
// configs enable it for the "DDIO sort" series).
func DefaultParams() Params {
	return Params{
		RequestCPU:       20 * time.Microsecond,
		IOPStartCPU:      50 * time.Microsecond,
		PlanPerBlockCPU:  2 * time.Microsecond,
		MemputCPU:        3 * time.Microsecond,
		MemgetCPU:        3 * time.Microsecond,
		MemgetRemoteCPU:  2 * time.Microsecond,
		GatherSegmentCPU: 500 * time.Nanosecond,
		BuffersPerDisk:   2,
	}
}

// Metrics aggregates per-IOP disk-directed activity.
type Metrics struct {
	Requests        int64 // collective requests served
	Blocks          int64 // blocks moved
	Memputs         int64
	Memgets         int64
	PartialBlockRMW int64 // write blocks not fully covered by the pattern
	disk.RetryCounts
}

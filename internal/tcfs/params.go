// Package tcfs implements the paper's baseline: a "traditional" parallel
// file system in the style of Intel CFS (Figure 1a). There is no
// collective interface: each compute processor issues one request per
// contiguous file chunk (split at block boundaries), with at most one
// outstanding request per disk per CP, and each I/O processor runs a
// block cache with LRU replacement, one-block-ahead prefetching, and
// write-behind of full blocks. Every request costs real IOP software
// time (thread creation, cache accesses), which is precisely the
// overhead disk-directed I/O eliminates.
package tcfs

import (
	"time"

	"ddio/internal/disk"
	"ddio/internal/fault"
)

// Params are the traditional-caching software costs and policy knobs.
// The CPU costs are calibrated to 1994-era file-system software on a
// 50 MHz RISC processor; they reproduce the paper's relative results.
// With 130 µs of IOP CPU per request (dispatch, thread, cache access,
// reply), 8-byte cyclic patterns run far below the disks: at paper
// scale, TC rbc with 8-byte records on the contiguous layout moves
// 0.28 MB/s (seed 1; 0.31 at seed 42) of the Table 1 machine's 34.8 MB/s
// disk ceiling, 110–124× slower (`ddiosim -method tc -pattern rbc
// -layout contiguous -record 8 -filemb 10`).
type Params struct {
	// CP-side costs.
	RequestSendCPU time.Duration // build + send one request
	ReplyRecvCPU   time.Duration // process one reply / wake the waiter

	// IOP-side costs.
	DispatchCPU    time.Duration // receive + demultiplex one message
	ThreadCreate   time.Duration // spawn a handler thread per request
	CacheAccessCPU time.Duration // one cache lookup/insert
	ReplySendCPU   time.Duration // build + send one reply
	CopyPerByte    time.Duration // memory-memory copy (write path)

	// Policy.
	BuffersPerDiskPerCP int // cache capacity factor (paper: 2)
	PrefetchBlocks      int // read-ahead depth in blocks (paper: 1)

	// StridedRequests enables the paper's future-work extension of
	// batching a CP's entire (strided) request list into one
	// file-system call, so requests to different disks pipeline across
	// chunk boundaries. The paper's baseline (false) issues one call
	// per contiguous chunk: within a call there is at most one
	// outstanding request per disk, and calls are sequential — which
	// is what starves disk parallelism for 1-block CYCLIC patterns
	// (Figure 5).
	StridedRequests bool

	// Retry bounds resubmission of transiently failed disk requests
	// (fault injection only; the zero policy never retries).
	Retry fault.RetryPolicy
}

// DefaultParams returns the calibrated defaults.
func DefaultParams() Params {
	return Params{
		RequestSendCPU: 15 * time.Microsecond,
		ReplyRecvCPU:   10 * time.Microsecond,

		DispatchCPU:    15 * time.Microsecond,
		ThreadCreate:   60 * time.Microsecond,
		CacheAccessCPU: 40 * time.Microsecond,
		ReplySendCPU:   15 * time.Microsecond,
		CopyPerByte:    25 * time.Nanosecond, // ~40 MB/s memcpy

		BuffersPerDiskPerCP: 2,
		PrefetchBlocks:      1,
	}
}

// Metrics aggregates per-server activity.
type Metrics struct {
	Requests   int64
	Reads      int64
	Writes     int64
	CacheHits  int64
	CacheMiss  int64
	Prefetches int64
	Flushes    int64
	PartialRMW int64 // partial-block flushes needing read-modify-write
	disk.RetryCounts
}

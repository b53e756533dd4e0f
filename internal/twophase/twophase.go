// Package twophase implements two-phase I/O (del Rosario, Bordawekar,
// and Choudhary), the contemporaneous alternative the paper compares
// against analytically in §7.1 but did not simulate. I/O is performed in
// a "conforming distribution" — a 1-D BLOCK decomposition matching the
// file's row-major layout — through the unmodified traditional-caching
// IOP software, and a separate in-memory permutation phase moves data
// between the conforming staging buffers and the application's true
// distribution. Disk-directed I/O subsumes both phases; implementing
// two-phase I/O lets the repository check the paper's §7.1 reasoning
// (extra network traversal, unoverlapped permutation) experimentally.
//
// One constructor, NewClient, serves whole-file transfers and request
// streams alike. The caller supplies the application's distribution,
// a conforming distribution covering the same file ranges (a 1-D BLOCK
// decomposition of the file for a whole-file transfer, the merged
// extents of a request stream otherwise), and the per-CP base of the
// staging area that holds the conforming buffer. The caller owns the
// memory layout; the client applies the staging base to both the
// conforming I/O phase and the permutation.
//
// Fault recovery rides on the tcfs servers this package runs its I/O
// phase through: the bounded-retry policy of a run's fault plan (see
// internal/fault) is armed via tcfs.Params.Retry, so degradation sweeps
// compare two-phase I/O under exactly the recovery model the
// traditional-caching baseline uses.
package twophase

import (
	"fmt"
	"time"

	"ddio/internal/cluster"
	"ddio/internal/hpf"
	"ddio/internal/pfs"
	"ddio/internal/sim"
	"ddio/internal/tcfs"
)

// Params are the permutation-phase software costs.
type Params struct {
	// PermuteMsgCPU is the per-message cost of building/sending one
	// permutation message (batched per destination CP).
	PermuteMsgCPU time.Duration
	// SegmentCPU is the additional cost per gather segment in a
	// permutation message.
	SegmentCPU time.Duration
	// CopyPerByte is the local memory-copy cost for data already owned.
	CopyPerByte time.Duration
}

// DefaultParams returns calibrated defaults.
func DefaultParams() Params {
	return Params{
		PermuteMsgCPU: 10 * time.Microsecond,
		SegmentCPU:    500 * time.Nanosecond,
		CopyPerByte:   25 * time.Nanosecond,
	}
}

// Client orchestrates a two-phase collective transfer for all CPs.
type Client struct {
	m       *cluster.Machine
	target  hpf.Access // the application's true distribution
	conf    hpf.Access // the conforming (1-D BLOCK-like) distribution
	stage   []int64    // where conf's buffer starts in each CP's memory
	prm     Params
	tc      *tcfs.Client
	barrier *sim.Barrier
	perm    *sim.WaitGroup // permutation messages in flight
	end     sim.Time
}

// NewClient builds the two-phase client for one collective transfer.
// target is the application's distribution, addressing CP memory
// directly; conf is a conforming distribution covering the same file
// ranges, whose buffer-relative offsets are staged at stage[cp] in cp's
// memory. servers are the traditional-caching IOPs that perform the
// conforming I/O phase.
func NewClient(m *cluster.Machine, f *pfs.File, target, conf hpf.Access, stage []int64,
	servers []*tcfs.Server, tcPrm tcfs.Params, prm Params) *Client {
	c := &Client{
		m:       m,
		target:  target,
		conf:    conf,
		stage:   stage,
		prm:     prm,
		barrier: sim.NewBarrier(m.Eng, "2ph", len(m.CPs)),
		perm:    sim.NewWaitGroup(m.Eng, "2ph-perm", 0),
	}
	c.tc = tcfs.NewClient(m, f, conf, servers, tcPrm)
	c.tc.SetMemBase(stage)
	return c
}

// EndTime returns the coordinator-observed completion time.
func (c *Client) EndTime() sim.Time { return c.end }

// TransferCP runs cp's side of the whole-file two-phase transfer.
func (c *Client) TransferCP(p *sim.Proc, cp int, write bool) {
	if write {
		// Phase 1: permute application data into the conforming
		// staging areas; Phase 2: write conforming.
		c.permute(p, cp, c.target, c.conf)
		c.tc.TransferCP(p, cp, true)
		if cp == 0 {
			c.end = c.tc.EndTime()
		}
		return
	}
	// Phase 1: read conforming into staging; Phase 2: permute into the
	// application distribution.
	c.tc.TransferCP(p, cp, false)
	c.permute(p, cp, c.conf, c.target)
	if cp == 0 {
		c.end = p.Now()
	}
	c.barrier.Wait(p) // keep all CPs resident until the transfer ends
}

// permute moves every byte from its location under decomposition 'from'
// to its location under decomposition 'to'. Each CP walks the file
// ranges it holds under 'from', batches the pieces per destination CP,
// and ships them with gather messages; local pieces are memcpy'd.
func (c *Client) permute(p *sim.Proc, cp int, from, to hpf.Access) {
	c.barrier.Wait(p)
	cpNode := c.m.CPs[cp]
	fromBase := c.baseFor(cp, from)
	// Destination base depends on the *destination* CP's role of 'to'.
	perDest := make(map[int][]cluster.MemSeg)
	for _, ch := range from.Chunks(cp) {
		for _, run := range to.RunsInRange(ch.FileOff, ch.Len) {
			src := fromBase + ch.MemOff + (run.FileOff - ch.FileOff)
			dstOff := c.baseFor(run.CP, to) + run.MemOff
			data := cpNode.Mem[src : src+run.Len]
			if run.CP == cp {
				_, end := cpNode.CPU.ReserveFor(c.prm.CopyPerByte * time.Duration(run.Len))
				copy(cpNode.Mem[dstOff:dstOff+run.Len], data)
				p.SleepUntil(end)
				continue
			}
			perDest[run.CP] = append(perDest[run.CP], cluster.MemSeg{Off: dstOff, Data: data})
		}
	}
	// Iterate destinations in CP order: map order would be
	// nondeterministic and break reproducibility.
	for dst := 0; dst < len(c.m.CPs); dst++ {
		segs, ok := perDest[dst]
		if !ok {
			continue
		}
		c.perm.Add(1)
		cpu := c.prm.PermuteMsgCPU + c.prm.SegmentCPU*time.Duration(len(segs)-1)
		c.m.MemputGather(cpNode, c.m.CPs[dst], segs, cpu,
			sim.Completion{}, c.perm.DoneC())
	}
	c.barrier.Wait(p)
	if cp == 0 {
		c.perm.Wait(p)
	}
	c.barrier.Wait(p)
}

// baseFor returns where distribution d's buffer starts in cp's memory:
// the conforming one at the staging base, the application distribution
// (which addresses memory directly) at 0.
func (c *Client) baseFor(cp int, d hpf.Access) int64 {
	if d == c.conf {
		return c.stage[cp]
	}
	return 0
}

// String describes the client (diagnostic).
func (c *Client) String() string {
	return fmt.Sprintf("twophase(conf=1D-BLOCK over %d CPs)", len(c.m.CPs))
}

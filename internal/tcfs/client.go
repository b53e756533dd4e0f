package tcfs

import (
	"time"

	"ddio/internal/cluster"
	"ddio/internal/hpf"
	"ddio/internal/pfs"
	"ddio/internal/sim"
)

// Client drives the CP side of a whole-file transfer under traditional
// caching: each CP walks its chunk list, splits chunks at block
// boundaries, and keeps at most one request outstanding per disk (one
// pump process per disk), as in the paper's §4.
type Client struct {
	m       *cluster.Machine
	f       *pfs.File
	dec     hpf.Access
	prm     Params
	servers []*Server // indexed by IOP

	barrier *sim.Barrier
	end     sim.Time
	memBase []int64 // optional per-CP offset added to all memory addresses

	// wgfree pools the per-request reply-tracking WaitGroups (one per
	// block piece — formerly the top allocation source on message-heavy
	// runs). The engine is single-threaded, so a plain LIFO list is safe
	// and reuse order is deterministic.
	wgfree []*sim.WaitGroup
	// reqs pools the request records themselves; each is released back
	// here by its reply's terminal completion (see request.release).
	reqs sim.Arena[request]
	// handlers pools the servers' handler records for this client's
	// requests and their prefetches (see handler.finish).
	handlers sim.Arena[handler]
}

// SetMemBase offsets every CP's memory addresses by base[cp]; two-phase
// I/O uses this to direct the conforming-distribution phase into a
// staging area above the application buffer.
func (c *Client) SetMemBase(base []int64) { c.memBase = base }

// memBaseOf returns the memory base for cp.
func (c *Client) memBaseOf(cp int) int64 {
	if c.memBase == nil {
		return 0
	}
	return c.memBase[cp]
}

// NewClient builds the client side for a transfer by all of the
// machine's CPs. dec may be nil for a client used only via StreamCP.
func NewClient(m *cluster.Machine, f *pfs.File, dec hpf.Access, servers []*Server, prm Params) *Client {
	return &Client{
		m:       m,
		f:       f,
		dec:     dec,
		prm:     prm,
		servers: servers,
		barrier: sim.NewBarrier(m.Eng, "tc-transfer", len(m.CPs)),
	}
}

// EndTime returns the time the coordinator observed transfer completion
// (all replies received and all IOPs synced), valid after the run.
func (c *Client) EndTime() sim.Time { return c.end }

// getWG takes a one-shot reply WaitGroup (count 1) from the free list,
// or makes one on first use.
func (c *Client) getWG() *sim.WaitGroup {
	if n := len(c.wgfree); n > 0 {
		wg := c.wgfree[n-1]
		c.wgfree[n-1] = nil
		c.wgfree = c.wgfree[:n-1]
		wg.Reset(1)
		return wg
	}
	return sim.NewWaitGroup(c.m.Eng, "tc-req", 1)
}

// putWG recycles a drained reply WaitGroup. Callers only recycle after
// Wait returned, so no Done event or waiter can still reference it.
func (c *Client) putWG(wg *sim.WaitGroup) { c.wgfree = append(c.wgfree, wg) }

// getReq takes a pooled request record stamped with this client as
// owner.
func (c *Client) getReq() *request {
	r := c.reqs.Get()
	r.owner = c
	return r
}

// getHandler takes a pooled handler record stamped with this client as
// owner.
func (c *Client) getHandler() *handler {
	h := c.handlers.Get()
	h.owner = c
	return h
}

// putReq recycles a released request record.
func (c *Client) putReq(r *request) { c.reqs.Put(r) }

// cpReq is one block-piece request to be issued.
type cpReq struct {
	block  int
	disk   int
	off, n int
	memOff int64
}

// pieces splits one chunk into per-block requests (in file order): a
// traditional file system must address each block's disk separately.
func (c *Client) pieces(ch hpf.Chunk, base int64, out []cpReq) []cpReq {
	bs := int64(c.f.BlockSize)
	for off := ch.FileOff; off < ch.FileOff+ch.Len; {
		b := int(off / bs)
		pieceEnd := (int64(b) + 1) * bs
		if end := ch.FileOff + ch.Len; pieceEnd > end {
			pieceEnd = end
		}
		out = append(out, cpReq{
			block:  b,
			disk:   c.f.DiskOf(b),
			off:    int(off - int64(b)*bs),
			n:      int(pieceEnd - off),
			memOff: base + ch.MemOff + (off - ch.FileOff),
		})
		off = pieceEnd
	}
	return out
}

// issue sends one ReadCP/WriteCP call's pieces, honoring Figure 1a's
// flow control — "if our previous request to that disk is still
// outstanding, wait for response" — then waits for all of them.
func (c *Client) issue(p *sim.Proc, cpNode *cluster.Node, pieces []cpReq, write bool,
	outstanding []*sim.WaitGroup) {
	for _, rq := range pieces {
		if prev := outstanding[rq.disk]; prev != nil {
			prev.Wait(p)
			c.putWG(prev)
		}
		done := c.getWG()
		outstanding[rq.disk] = done
		msg := c.getReq()
		msg.write = write
		msg.block = rq.block
		msg.off = rq.off
		msg.n = rq.n
		msg.memOff = rq.memOff
		msg.src = cpNode
		msg.done = done
		payload := 0
		if write {
			msg.data = append(msg.data[:0], cpNode.Mem[msg.memOff:msg.memOff+int64(rq.n)]...)
			payload = rq.n
		}
		c.m.Send(cpNode, c.servers[rq.disk%len(c.servers)].node, payload, c.prm.RequestSendCPU, msg)
	}
	for _, wg := range outstanding {
		if wg != nil {
			wg.Wait(p)
			c.putWG(wg)
		}
	}
	for i := range outstanding {
		outstanding[i] = nil
	}
}

// TransferCP runs cp's side of the transfer: one file-system call per
// contiguous chunk (or a single strided call when the extension is
// enabled), then — on CP 0 — a sync of every IOP so that outstanding
// write-behind and prefetch requests are included in the measured time,
// as the paper requires.
func (c *Client) TransferCP(p *sim.Proc, cp int, write bool) {
	c.barrier.Wait(p)
	cpNode := c.m.CPs[cp]
	base := c.memBaseOf(cp)
	outstanding := make([]*sim.WaitGroup, len(c.f.Disks))
	if c.prm.StridedRequests {
		// Extension: the whole access list goes down in one call, so
		// requests to different disks pipeline across chunks.
		var all []cpReq
		for _, ch := range c.dec.Chunks(cp) {
			all = c.pieces(ch, base, all)
		}
		c.issue(p, cpNode, all, write, outstanding)
	} else {
		var buf []cpReq
		for _, ch := range c.dec.Chunks(cp) {
			buf = c.pieces(ch, base, buf[:0])
			c.issue(p, cpNode, buf, write, outstanding)
		}
	}
	c.barrier.Wait(p)
	c.sync(p, cp, cpNode)
	c.barrier.Wait(p)
}

// sync has CP 0 flush every IOP so outstanding write-behind and prefetch
// are included in the measured time, then stamps the end time.
func (c *Client) sync(p *sim.Proc, cp int, cpNode *cluster.Node) {
	if cp != 0 {
		return
	}
	sdone := sim.NewWaitGroup(c.m.Eng, "tc-sync", len(c.servers))
	for _, s := range c.servers {
		c.m.Send(cpNode, s.node, 0, c.prm.RequestSendCPU, &syncReq{src: cpNode, done: sdone})
	}
	sdone.Wait(p)
	c.end = p.Now()
}

// StreamReq is one request of a workload stream: a contiguous file range
// read into (or written from) an absolute memory offset, optionally
// released into the system at an absolute arrival time (open workload)
// or after a think pause (closed loop).
type StreamReq struct {
	Write   bool
	FileOff int64
	Len     int64
	MemOff  int64 // absolute offset in the CP's memory
	// At, when positive, is the request's arrival offset from the
	// phase's start: the CP does not issue it earlier (open arrivals).
	At time.Duration
	// Think, when positive, is slept before issuing (closed loop).
	Think time.Duration
}

// StreamCP runs cp's side of a workload phase under traditional caching:
// each request is split at block boundaries and issued with the same
// one-outstanding-per-disk flow control TransferCP uses, honoring the
// stream's arrival process. The final sync mirrors TransferCP so
// write-behind and prefetch are inside the measured time.
func (c *Client) StreamCP(p *sim.Proc, cp int, reqs []StreamReq) {
	c.barrier.Wait(p)
	cpNode := c.m.CPs[cp]
	start := p.Now()
	outstanding := make([]*sim.WaitGroup, len(c.f.Disks))
	var buf []cpReq
	for _, rq := range reqs {
		if rq.Think > 0 {
			p.Sleep(rq.Think)
		}
		if at := start + sim.Time(rq.At); rq.At > 0 && at > p.Now() {
			p.SleepUntil(at)
		}
		buf = c.pieces(hpf.Chunk{FileOff: rq.FileOff, MemOff: rq.MemOff, Len: rq.Len}, 0, buf[:0])
		c.issue(p, cpNode, buf, rq.Write, outstanding)
	}
	c.barrier.Wait(p)
	c.sync(p, cp, cpNode)
	c.barrier.Wait(p)
}

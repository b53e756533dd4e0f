package tcfs

import (
	"ddio/internal/cluster"
	"ddio/internal/hpf"
	"ddio/internal/pfs"
	"ddio/internal/sim"
	"ddio/internal/workload"
)

// Client drives the CP side of traditional caching: each CP makes its
// file-system calls in order (its chunks of a collective transfer, or
// its requests of a workload stream), splits each at block boundaries,
// and keeps at most one request outstanding per disk, as in the paper's
// Figure 1a.
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

// issue sends one call's pieces, split at block boundaries in file
// order (a traditional file system must address each block's disk
// separately), honoring Figure 1a's flow control: "if our previous
// request to that disk is still outstanding, wait for response".
// base is added to the call's memory offset.
func (c *Client) issue(p *sim.Proc, cpNode *cluster.Node, rq workload.Req, base int64,
	outstanding []*sim.WaitGroup) {
	bs := int64(c.f.BlockSize)
	end := rq.FileOff + rq.Len
	for off := rq.FileOff; off < end; {
		b := int(off / bs)
		n := min((int64(b)+1)*bs, end) - off
		disk := c.f.DiskOf(b)
		if prev := outstanding[disk]; prev != nil {
			prev.Wait(p)
			c.putWG(prev)
		}
		done := c.getWG()
		outstanding[disk] = done
		msg := c.getReq()
		msg.write = rq.Write
		msg.block = b
		msg.off = int(off - int64(b)*bs)
		msg.n = int(n)
		msg.memOff = base + rq.MemOff + (off - rq.FileOff)
		msg.src = cpNode
		msg.done = done
		payload := 0
		if rq.Write {
			msg.data = append(msg.data[:0], cpNode.Mem[msg.memOff:msg.memOff+n]...)
			payload = int(n)
		}
		c.m.Send(cpNode, c.servers[disk%len(c.servers)].node, payload, c.prm.RequestSendCPU, msg)
		off += n
	}
}

// join waits for every outstanding reply.
func (c *Client) join(p *sim.Proc, outstanding []*sim.WaitGroup) {
	for i, wg := range outstanding {
		if wg != nil {
			wg.Wait(p)
			c.putWG(wg)
			outstanding[i] = nil
		}
	}
}

// run is the one CP body of every traditional-caching transfer, Figure
// 1a's loop: after a barrier, cp makes n file-system calls, call(k)
// being the k-th. Each call waits out its think time and its arrival
// (At, from the start of the run), is issued piece by piece, and waits
// for all of its replies — unless strided, where the calls form one
// strided request whose replies are awaited once, after its last piece.
// Then CP 0 syncs every IOP, so that outstanding write-behind and
// prefetch are included in the measured time, as the paper requires.
func (c *Client) run(p *sim.Proc, cp int, strided bool, n int, call func(k int) workload.Req) {
	c.barrier.Wait(p)
	cpNode := c.m.CPs[cp]
	base := c.memBaseOf(cp)
	start := p.Now()
	outstanding := make([]*sim.WaitGroup, len(c.f.Disks))
	for k := 0; k < n; k++ {
		rq := call(k)
		if rq.Think > 0 {
			p.Sleep(rq.Think)
		}
		if at := start + sim.Time(rq.At); rq.At > 0 && at > p.Now() {
			p.SleepUntil(at)
		}
		c.issue(p, cpNode, rq, base, outstanding)
		if !strided {
			c.join(p, outstanding)
		}
	}
	c.join(p, outstanding)
	c.barrier.Wait(p)
	c.sync(p, cp, cpNode)
	c.barrier.Wait(p)
}

// TransferCP runs cp's side of the transfer: one file-system call per
// contiguous chunk, or a single strided call when the extension is
// enabled (requests to different disks then pipeline across chunks).
func (c *Client) TransferCP(p *sim.Proc, cp int, write bool) {
	chunks := c.dec.Chunks(cp)
	c.run(p, cp, c.prm.StridedRequests, len(chunks), func(k int) workload.Req {
		ch := &chunks[k]
		return workload.Req{Write: write, FileOff: ch.FileOff, Len: ch.Len, MemOff: ch.MemOff}
	})
}

// StreamCP runs cp's side of a workload phase: one call per request,
// in order, honoring the stream's arrival process. Memory offsets are
// relative to the client's memory base, as in TransferCP.
func (c *Client) StreamCP(p *sim.Proc, cp int, reqs []workload.Req) {
	c.run(p, cp, false, len(reqs), func(k int) workload.Req { return reqs[k] })
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

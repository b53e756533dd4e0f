package tcfs

import (
	"fmt"
	"time"

	"ddio/internal/cluster"
	"ddio/internal/disk"
	"ddio/internal/pfs"
	"ddio/internal/sim"
	"ddio/internal/trace"
)

// request is one CP→IOP file-system call for a piece of a single block,
// pooled on the issuing Client (owner) and reused LIFO. The record is
// also the completion target for its own reply: the server schedules a
// reqReadLand/reqWriteAck token as the reply message's delivery
// completion, and the record is released back to its owner at that
// terminal stage — after which gen has been bumped, so any stale token
// drops as a no-op.
type request struct {
	owner  *Client // issuing client, for release back to its pool
	gen    uint64
	srv    *Server         // serving IOP, stamped at dispatch
	run    func(*sim.Proc) // serve bound once per pooled record
	write  bool
	block  int
	off    int // offset within the block
	n      int
	memOff int64  // CP memory offset (read deposit target)
	data   []byte // write payload or read reply (pooled capacity)
	src    *cluster.Node
	done   *sim.WaitGroup // signaled at the CP when the reply lands
}

// Reply token kinds.
const (
	reqReadLand uint8 = iota + 1 // read data arrived at the CP
	reqWriteAck                  // write ack arrived at the CP
)

func (r *request) token(kind uint8) sim.Completion {
	return sim.Completion{Target: r, Gen: r.gen, Kind: kind}
}

// Complete handles the reply's arrival at the CP: a read deposits its
// payload into the user buffer first; both kinds then charge the CP's
// reply-wakeup cost and signal the requester.
func (r *request) Complete(c sim.Completion, now sim.Time) {
	if c.Gen != r.gen {
		return
	}
	s := r.srv
	if c.Kind == reqReadLand {
		copy(r.src.Mem[r.memOff:], r.data)
	}
	_, end := r.src.CPU.ReserveFor(s.prm.ReplyRecvCPU)
	done := r.done
	r.release()
	s.m.Eng.AtCompletion(end, done.DoneC())
}

// release returns the record to its owner's pool, invalidating queued
// tokens (payload capacity is kept for reuse).
func (r *request) release() {
	r.gen++
	r.srv = nil
	r.src = nil
	r.done = nil
	r.data = r.data[:0]
	r.owner.putReq(r)
}

// serve is the request's handler thread: it handles the request, then
// records its busy span. The reply can land, and the client recycle r,
// while the handler is still finishing, so r is not touched after
// handle returns.
func (r *request) serve(h *sim.Proc) {
	s := r.srv
	start := h.Now()
	s.handle(h, r)
	s.outstanding.Done()
	s.rec.PoolBusy(s.svcName, int64(start), int64(h.Now()))
}

// prefetch is one block to be pulled into the cache ahead of demand,
// pooled on its server and run on a handler thread of its own.
type prefetch struct {
	srv   *Server
	block int
	run   func(*sim.Proc) // serve bound once per pooled record
}

// serve reads the block into the cache on a handler thread.
func (pf *prefetch) serve(h *sim.Proc) {
	s := pf.srv
	start := h.Now()
	b := s.cache.getRead(h, pf.block)
	s.cache.unpin(b)
	s.outstanding.Done()
	s.prefetches.Put(pf)
	s.rec.PoolBusy(s.svcName, int64(start), int64(h.Now()))
}

// syncReq asks an IOP to flush write-behind data, wait out prefetches,
// and drain its disks.
type syncReq struct {
	src  *cluster.Node
	done *sim.WaitGroup
}

// Server is the traditional-caching IOP: a dispatcher daemon that starts
// a handler thread for each incoming request (paying ThreadCreate CPU,
// as the paper's server does) over a shared block cache.
type Server struct {
	m     *cluster.Machine
	node  *cluster.Node
	f     *pfs.File
	prm   Params
	cache *blockCache
	m2    Metrics
	retry disk.Retrier // bounded-retry policy for every disk request

	outstanding *sim.WaitGroup      // in-flight requests and prefetches
	prefetches  sim.Arena[prefetch] // prefetch records
	svcName     string              // precomputed handler proc name
	syncName    string              // precomputed sync-handler proc name
	rec         *trace.Recorder     // event tracing, nil when disabled
	traceName   string              // precomputed node label for trace records
	reqSeq      int64               // per-server request id for trace correlation
}

// NewServer builds the caching server for one IOP and starts its
// dispatcher. nCP sizes the cache: BuffersPerDiskPerCP frames per local
// disk per CP.
func NewServer(m *cluster.Machine, node *cluster.Node, f *pfs.File, nCP int, prm Params) *Server {
	s := &Server{m: m, node: node, f: f, prm: prm}
	s.rec = m.Eng.Recorder()
	s.traceName = node.String()
	s.svcName = "tc-svc:" + s.traceName
	s.syncName = "tc-sync:" + s.traceName
	s.retry = disk.Retrier{Policy: prm.Retry, Counts: &s.m2.RetryCounts, Rec: s.rec, Node: s.traceName}
	frames := prm.BuffersPerDiskPerCP * nCP * s.localDiskCount()
	s.cache = newBlockCache(s, frames, f.BlockSize)
	s.outstanding = sim.NewWaitGroup(m.Eng, "tc-outstanding:"+node.String(), 0)
	m.Eng.GoDaemon("tc-dispatch:"+node.String(), s.dispatch)
	return s
}

// Metrics returns a copy of the server's counters.
func (s *Server) Metrics() Metrics { return s.m2 }

// ReleaseFrames hands the cache's frame and scratch buffers back to the
// slab list (sim.PutSlab). Call it once the run is over: the server must
// not serve again.
func (s *Server) ReleaseFrames() {
	for _, b := range s.cache.bufs {
		sim.PutSlab(b.data)
		sim.PutSlab(b.scratch)
		b.data, b.scratch = nil, nil
	}
}

// localDiskCount returns how many of the file's disks this IOP serves.
func (s *Server) localDiskCount() int {
	n := 0
	for d := range s.f.Disks {
		if s.ownsDisk(d) {
			n++
		}
	}
	return n
}

// ownsDisk reports whether this IOP serves disk index d. Disks are
// assigned to IOPs round-robin by the machine builder; the convention is
// shared with the disk-directed file system.
func (s *Server) ownsDisk(d int) bool {
	return d%len(s.m.IOPs) == s.node.Index
}

func (s *Server) dispatch(p *sim.Proc) {
	for {
		msg := s.node.Mail.Get(p)
		s.node.CPU.UseFor(p, s.prm.DispatchCPU)
		switch r := msg.(type) {
		case *request:
			s.node.CPU.UseFor(p, s.prm.ThreadCreate)
			s.outstanding.Add(1)
			r.srv = s
			s.m.Eng.Go(s.svcName, r.run)
		case *syncReq:
			s.m.Eng.Go(s.syncName, func(h *sim.Proc) { s.handleSync(h, r) })
		default:
			panic(fmt.Sprintf("tcfs: unexpected message %T", msg))
		}
	}
}

func (s *Server) handle(h *sim.Proc, r *request) {
	s.m2.Requests++
	id := s.reqSeq
	s.reqSeq++
	start := h.Now()
	s.rec.RequestStart(s.traceName, id, int64(start), r.write, int64(r.n))
	s.node.CPU.UseFor(h, s.prm.CacheAccessCPU)
	if r.write {
		s.handleWrite(h, r)
	} else {
		s.handleRead(h, r)
	}
	s.rec.RequestEnd(s.traceName, id, int64(start), int64(h.Now()))
}

func (s *Server) handleRead(h *sim.Proc, r *request) {
	s.m2.Reads++
	b := s.cache.getRead(h, r.block)
	// Stage the reply on the request record itself.
	r.data = append(r.data[:0], b.data[r.off:r.off+r.n]...)
	s.cache.unpin(b)
	// Reply with the data; it is DMA-deposited straight into the user
	// buffer at the CP (reqReadLand), which then pays a small wakeup cost.
	s.node.CPU.UseFor(h, s.prm.ReplySendCPU)
	s.m.SendC(s.node, r.src, r.n, 0, r.token(reqReadLand))
	s.maybePrefetch(h, r.block)
}

func (s *Server) handleWrite(h *sim.Proc, r *request) {
	s.m2.Writes++
	b := s.cache.getWrite(h, r.block)
	// The only memory-memory copy in the system (paper §4): from the
	// handler's message buffer into the cache frame.
	s.node.CPU.UseFor(h, s.prm.CopyPerByte*time.Duration(r.n))
	copy(b.data[r.off:r.off+r.n], r.data)
	b.markWritten(r.off, r.n)
	full := b.dirty == s.f.BlockSize
	// Ack before the write-behind happens: the data is safely cached.
	s.node.CPU.UseFor(h, s.prm.ReplySendCPU)
	s.m.SendC(s.node, r.src, 0, 0, r.token(reqWriteAck))
	if full && !b.flushing {
		s.cache.flush(h, b)
	}
	s.cache.unpin(b)
}

// maybePrefetch starts an asynchronous read of the next block(s) on the
// same disk, if cache frames are idle — the paper's one-block-ahead
// prefetch whose occasional mistake (one extra block at the end of rb)
// it also reproduces.
func (s *Server) maybePrefetch(h *sim.Proc, afterBlock int) {
	for k := 1; k <= s.prm.PrefetchBlocks; k++ {
		nb := afterBlock + k*len(s.f.Disks) // next file block on this disk
		if nb >= s.f.NumBlocks || s.cache.contains(nb) {
			continue
		}
		s.m2.Prefetches++
		s.node.CPU.UseFor(h, s.prm.CacheAccessCPU)
		s.outstanding.Add(1)
		pf := s.prefetches.Get()
		if pf.run == nil {
			pf.srv = s
			pf.run = pf.serve
		}
		pf.block = nb
		s.m.Eng.Go(s.svcName, pf.run)
	}
}

func (s *Server) handleSync(h *sim.Proc, r *syncReq) {
	// Wait for all in-flight handler threads (including prefetches) to
	// finish, flush dirty buffers, then drain the disks' own queues and
	// write-behind buffers.
	s.outstanding.Wait(h)
	s.cache.flushAll(h)
	for d, dd := range s.f.Disks {
		if s.ownsDisk(d) {
			dd.Flush(h)
		}
	}
	s.m.SendC(s.node, r.src, 0, s.prm.ReplySendCPU, r.done.DoneC())
}

// diskFor returns the disk holding the given file block.
func (s *Server) diskFor(block int) *disk.Disk { return s.f.Disks[s.f.DiskOf(block)] }

// blockIO reads block into buf (or writes buf to it) under the
// server's retry policy, reporting whether the request got through; a
// lost request is counted in DiskLost.
func (s *Server) blockIO(p *sim.Proc, write bool, block int, buf []byte) bool {
	return s.retry.Do(p, s.diskFor(block), write, s.f.LBN(block), buf) == nil
}

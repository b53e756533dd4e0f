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
	srv    *Server // serving IOP, stamped at dispatch
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

// handler is one of the paper's handler threads: a request's, or a
// prefetch's, which pulls one block into the cache ahead of demand. It
// runs as a chain of completion tokens, one at the end of each CPU
// charge, and borrows a proc (Server.wait) only for a cache call that
// must block: a miss, a wait for another handler's fill or flush, or
// the flush of a block a write filled. The thread's simulated cost is
// the ThreadCreate the dispatcher charges, not a host coroutine.
// Records are pooled on the Client that issued the request; the handler
// finishes, and is released, at its last stage, so no token outlives it.
type handler struct {
	owner    *Client
	srv      *Server
	gen      uint64
	r        *request // request served, until its reply is sent
	prefetch bool
	block    int
	b        *buffer  // write: the pinned frame, from lookup to unpin
	full     bool     // write: the frame is now wholly dirty
	k        int      // read: distance of the next block to prefetch
	id       int64    // trace request id
	start    sim.Time // handler start, for its trace spans
}

// Handler token kinds: the end of each of the thread's CPU charges.
const (
	hStart         uint8 = iota + 1 // request handler starts
	hLooked                         // CacheAccessCPU charged
	hCopied                         // write copy charged
	hReplied                        // ReplySendCPU charged
	hPrefetch                       // a prefetch's CacheAccessCPU charged
	hPrefetchStart                  // prefetch handler starts
)

func (h *handler) token(kind uint8) sim.Completion {
	return sim.Completion{Target: h, Gen: h.gen, Kind: kind}
}

// charge reserves the IOP's CPU for d and schedules the stage kind at
// the end of the reservation.
func (h *handler) charge(d time.Duration, kind uint8) {
	_, end := h.srv.node.CPU.ReserveFor(d)
	h.srv.m.Eng.AtCompletion(end, h.token(kind))
}

// Complete advances the handler by one stage.
func (h *handler) Complete(c sim.Completion, now sim.Time) {
	if c.Gen != h.gen {
		return
	}
	s := h.srv
	switch c.Kind {
	case hStart:
		s.m2.Requests++
		h.id = s.reqSeq
		s.reqSeq++
		h.start = now
		s.rec.RequestStart(s.traceName, h.id, int64(now), h.r.write, int64(h.r.n))
		h.charge(s.prm.CacheAccessCPU, hLooked)
	case hLooked:
		var b *buffer
		if h.r.write {
			s.m2.Writes++
			b = s.cache.tryWrite(now, h.block)
		} else {
			s.m2.Reads++
			b = s.cache.tryRead(now, h.block)
		}
		if b == nil {
			h.borrow()
		} else {
			h.got(b)
		}
	case hCopied:
		// The only memory-memory copy in the system (paper §4): from the
		// handler's message buffer into the cache frame.
		r, b := h.r, h.b
		copy(b.data[r.off:r.off+r.n], r.data)
		b.markWritten(r.off, r.n)
		h.full = b.dirty == s.f.BlockSize
		// Ack before the write-behind happens: the data is safely cached.
		h.charge(s.prm.ReplySendCPU, hReplied)
	case hReplied:
		// The reply can land, and the client recycle the request, while
		// the handler is still finishing.
		r := h.r
		h.r = nil
		if !r.write {
			// The data is DMA-deposited straight into the user buffer at
			// the CP (reqReadLand), which then pays a small wakeup cost.
			s.m.SendC(s.node, r.src, r.n, 0, r.token(reqReadLand))
			h.prefetchNext(now)
			return
		}
		s.m.SendC(s.node, r.src, 0, 0, r.token(reqWriteAck))
		if h.full && !h.b.flushing {
			h.borrow()
			return
		}
		s.cache.unpin(h.b)
		h.finish(now)
	case hPrefetch:
		s.outstanding.Add(1)
		pf := h.owner.getHandler()
		pf.srv = s
		pf.prefetch = true
		pf.block = h.block + h.k*len(s.f.Disks)
		s.m.Eng.AtCompletion(now, pf.token(hPrefetchStart))
		h.k++
		h.prefetchNext(now)
	case hPrefetchStart:
		h.start = now
		if b := s.cache.tryRead(now, h.block); b != nil {
			s.cache.unpin(b)
			h.finish(now)
		} else {
			h.borrow()
		}
	}
}

// borrow runs the handler's blocking cache call (wait) on a proc that
// starts within the current event.
func (h *handler) borrow() {
	s := h.srv
	s.waiting = h
	s.m.Eng.GoNow(s.svcName, s.wait)
}

// wait is the body of a borrowed proc: the cache call that blocks, after
// which the handler goes back to tokens.
func (h *handler) wait(p *sim.Proc) {
	c := h.srv.cache
	switch {
	case h.prefetch:
		c.unpin(c.getRead(p, h.block))
		h.finish(p.Now())
	case h.b != nil: // a write that filled its frame
		c.flush(p, h.b)
		c.unpin(h.b)
		h.finish(p.Now())
	case h.r.write:
		h.got(c.getWrite(p, h.block))
	default:
		h.got(c.getRead(p, h.block))
	}
}

// got goes on with the request's pinned frame b: a write charges its
// copy into b; a read stages its data from b on the request record,
// unpins b and charges the reply.
func (h *handler) got(b *buffer) {
	r, s := h.r, h.srv
	if r.write {
		h.b = b
		h.charge(s.prm.CopyPerByte*time.Duration(r.n), hCopied)
		return
	}
	r.data = append(r.data[:0], b.data[r.off:r.off+r.n]...)
	s.cache.unpin(b)
	h.charge(s.prm.ReplySendCPU, hReplied)
}

// prefetchNext starts an asynchronous read of the next block(s) on the
// same disk, from distance k on, if they are not cached — the paper's
// one-block-ahead prefetch whose occasional mistake (one extra block at
// the end of rb) it also reproduces — and finishes the handler after
// the last.
func (h *handler) prefetchNext(now sim.Time) {
	s := h.srv
	for ; h.k <= s.prm.PrefetchBlocks; h.k++ {
		nb := h.block + h.k*len(s.f.Disks) // next file block on this disk
		if nb >= s.f.NumBlocks || s.cache.contains(nb) {
			continue
		}
		s.m2.Prefetches++
		h.charge(s.prm.CacheAccessCPU, hPrefetch)
		return
	}
	h.finish(now)
}

// finish ends the handler: it records its spans, counts it out of the
// server's in-flight work and releases the record.
func (h *handler) finish(now sim.Time) {
	s := h.srv
	if !h.prefetch {
		s.rec.RequestEnd(s.traceName, h.id, int64(h.start), int64(now))
	}
	s.outstanding.Done()
	s.rec.PoolBusy(s.svcName, int64(h.start), int64(now))
	*h = handler{owner: h.owner, gen: h.gen + 1}
	h.owner.handlers.Put(h)
}

// syncReq asks an IOP to flush write-behind data, wait out prefetches,
// and drain its disks.
type syncReq struct {
	src  *cluster.Node
	done *sim.WaitGroup
}

// Server is the traditional-caching IOP: a dispatcher that starts a
// handler thread for each incoming request (paying ThreadCreate CPU, as
// the paper's server does) over a shared block cache. The dispatcher is
// the server itself as a completion target (Complete).
type Server struct {
	m     *cluster.Machine
	node  *cluster.Node
	f     *pfs.File
	prm   Params
	cache *blockCache
	m2    Metrics
	retry disk.Retrier // bounded-retry policy for every disk request

	msg         any             // message being dispatched
	outstanding *sim.WaitGroup  // in-flight requests and prefetches
	waiting     *handler        // handler whose borrowed proc starts next
	wait        func(*sim.Proc) // borrowed procs' body, bound once
	svcName     string          // precomputed handler proc name
	syncName    string          // precomputed sync-handler proc name
	rec         *trace.Recorder // event tracing, nil when disabled
	traceName   string          // precomputed node label for trace records
	reqSeq      int64           // per-server request id for trace correlation
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
	s.wait = func(p *sim.Proc) {
		h := s.waiting
		s.waiting = nil
		h.wait(p)
	}
	m.Eng.AtCompletion(m.Eng.Now(), s.token(dRecv))
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

// Dispatcher token kinds.
const (
	dRecv       uint8 = iota + 1 // a message may be waiting
	dDispatched                  // DispatchCPU charged for msg
	dCreated                     // ThreadCreate charged for msg
)

func (s *Server) token(kind uint8) sim.Completion {
	return sim.Completion{Target: s, Kind: kind}
}

// Complete runs the dispatcher: it takes each message from the mailbox,
// charges DispatchCPU to demultiplex it, and starts a handler for a
// request (after ThreadCreate) or a sync handler for a sync.
func (s *Server) Complete(c sim.Completion, now sim.Time) {
	switch c.Kind {
	case dDispatched:
		switch r := s.msg.(type) {
		case *request:
			_, end := s.node.CPU.ReserveFor(s.prm.ThreadCreate)
			s.m.Eng.AtCompletion(end, s.token(dCreated))
			return
		case *syncReq:
			s.m.Eng.Go(s.syncName, func(h *sim.Proc) { s.handleSync(h, r) })
		default:
			panic(fmt.Sprintf("tcfs: unexpected message %T", s.msg))
		}
	case dCreated:
		r := s.msg.(*request)
		s.outstanding.Add(1)
		r.srv = s
		h := r.owner.getHandler()
		h.srv = s
		h.r = r
		h.block = r.block
		h.k = 1
		s.m.Eng.AtCompletion(now, h.token(hStart))
	}
	s.msg = nil
	msg, ok := s.node.Mail.Recv(s.token(dRecv))
	if !ok {
		return
	}
	s.msg = msg
	_, end := s.node.CPU.ReserveFor(s.prm.DispatchCPU)
	s.m.Eng.AtCompletion(end, s.token(dDispatched))
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

package core

import (
	"fmt"
	"sort"
	"time"

	"ddio/internal/cluster"
	"ddio/internal/disk"
	"ddio/internal/hpf"
	"ddio/internal/pfs"
	"ddio/internal/sim"
	"ddio/internal/trace"
)

// collReq is the collective request multicast to every IOP: the access
// pattern itself travels, and each IOP re-derives its local work from it
// (the paper's "determine the set of file data local to this IOP").
type collReq struct {
	write bool
	dec   hpf.Access
	src   *cluster.Node
	done  *sim.WaitGroup // signaled (once per IOP) back at the requester
}

// Server is the disk-directed IOP engine.
type Server struct {
	m    *cluster.Machine
	node *cluster.Node
	f    *pfs.File
	prm  Params
	m2   Metrics
	req  *collReq // request being dispatched

	localDisks                 []int           // global disk indices served by this IOP
	retry                      disk.Retrier    // bounded-retry policy for every disk request
	workName                   string          // precomputed request-worker proc name
	bufNames                   [][]string      // precomputed buffer-thread proc names [localDisk][buffer]
	deliveredName, workersName string          // precomputed per-request WaitGroup names
	rec                        *trace.Recorder // event tracing, nil when disabled
	traceName                  string          // precomputed node label for trace records
	reqSeq                     int64           // per-server collective-request id in traces
}

// NewServer builds the disk-directed server for one IOP: a dispatcher
// (the server as a completion target, see Complete) that takes requests
// from the mailbox and starts one worker thread per collective request.
func NewServer(m *cluster.Machine, node *cluster.Node, f *pfs.File, prm Params) *Server {
	if prm.BuffersPerDisk < 1 {
		prm.BuffersPerDisk = 1
	}
	s := &Server{m: m, node: node, f: f, prm: prm}
	s.rec = m.Eng.Recorder()
	s.traceName = node.String()
	s.retry = disk.Retrier{Policy: prm.Retry, Counts: &s.m2.RetryCounts, Rec: s.rec, Node: s.traceName}
	for d := range f.Disks {
		if d%len(m.IOPs) == node.Index {
			s.localDisks = append(s.localDisks, d)
		}
	}
	s.bufNames = make([][]string, len(s.localDisks))
	for i, d := range s.localDisks {
		s.bufNames[i] = make([]string, prm.BuffersPerDisk)
		for b := 0; b < prm.BuffersPerDisk; b++ {
			s.bufNames[i][b] = fmt.Sprintf("dd-buf:%s:d%d.%d", node, d, b)
		}
	}
	s.deliveredName = "dd-delivered:" + node.String()
	s.workersName = "dd-workers:" + node.String()
	s.workName = "dd-work:" + node.String()
	m.Eng.AtCompletion(m.Eng.Now(), s.token(dRecv))
	return s
}

// Metrics returns a copy of the server's counters.
func (s *Server) Metrics() Metrics { return s.m2 }

// Dispatcher token kinds.
const (
	dRecv    uint8 = iota + 1 // a message may be waiting
	dStarted                  // IOPStartCPU charged for req
)

func (s *Server) token(kind uint8) sim.Completion {
	return sim.Completion{Target: s, Kind: kind}
}

// Complete runs the dispatcher: it takes each collective request from
// the mailbox, charges IOPStartCPU, and starts a worker thread for it.
func (s *Server) Complete(c sim.Completion, _ sim.Time) {
	if c.Kind == dStarted {
		req := s.req
		s.req = nil
		s.m.Eng.Go(s.workName, func(w *sim.Proc) {
			start := w.Now()
			s.serve(w, req)
			s.rec.PoolBusy(s.workName, int64(start), int64(w.Now()))
		})
	}
	msg, ok := s.node.Mail.Recv(s.token(dRecv))
	if !ok {
		return
	}
	req, ok := msg.(*collReq)
	if !ok {
		panic(fmt.Sprintf("core: unexpected message %T", msg))
	}
	s.req = req
	_, end := s.node.CPU.ReserveFor(s.prm.IOPStartCPU)
	s.m.Eng.AtCompletion(end, s.token(dStarted))
}

// serve executes one collective request end to end on this IOP.
func (s *Server) serve(p *sim.Proc, req *collReq) {
	s.m2.Requests++
	reqID := s.reqSeq
	s.reqSeq++
	reqStart := p.Now()
	// Plan: the per-disk block lists, sorted by physical location when
	// presorting (Figure 1c), otherwise in file order.
	totalBlocks := 0
	bs := int64(s.f.BlockSize)
	plans := make([][]int, len(s.localDisks))
	for i, d := range s.localDisks {
		blocks := s.f.LocalBlocks(d)
		if req.dec.Partial() {
			// A partial access (workload request streams) touches only
			// some blocks; plan only those the pattern covers.
			// LocalBlocks returns a fresh slice, so filter in place.
			kept := blocks[:0]
			for _, b := range blocks {
				if len(req.dec.RunsInRange(int64(b)*bs, bs)) > 0 {
					kept = append(kept, b)
				}
			}
			blocks = kept
		}
		if s.prm.Presort {
			blocks = append([]int(nil), blocks...)
			sort.Slice(blocks, func(a, b int) bool {
				return s.f.LBN(blocks[a]) < s.f.LBN(blocks[b])
			})
		}
		plans[i] = blocks
		totalBlocks += len(blocks)
	}
	s.node.CPU.UseFor(p, s.prm.PlanPerBlockCPU*time.Duration(totalBlocks))
	// Recorded after planning so the payload (the bytes this IOP will
	// move) is known; T still carries the arrival time.
	s.rec.RequestStart(s.traceName, reqID, int64(reqStart), req.write,
		int64(totalBlocks)*int64(s.f.BlockSize))

	// delivered counts every Memput landed / every block durably
	// written, so "finished" really means the data has arrived.
	delivered := sim.NewWaitGroup(s.m.Eng, s.deliveredName, 0)
	workers := sim.NewWaitGroup(s.m.Eng, s.workersName, 0)
	for i, d := range s.localDisks {
		dd := s.f.Disks[d]
		it := &blockIter{blocks: plans[i]}
		for b := 0; b < s.prm.BuffersPerDisk; b++ {
			workers.Add(1)
			s.m.Eng.Go(s.bufNames[i][b], func(w *sim.Proc) {
				defer workers.Done()
				if req.write {
					s.writeLoop(w, dd, it, req.dec, delivered)
				} else {
					s.readLoop(w, dd, it, req.dec, delivered)
				}
			})
		}
	}
	workers.Wait(p)
	if req.write {
		// The measured time includes waiting for write-behind (§5).
		for _, d := range s.localDisks {
			s.f.Disks[d].Flush(p)
		}
	}
	delivered.Wait(p)
	s.rec.RequestEnd(s.traceName, reqID, int64(reqStart), int64(p.Now()))
	s.m.SendC(s.node, req.src, 0, s.prm.RequestCPU, req.done.DoneC())
}

// blockIter hands out blocks of one disk's plan to its buffer threads;
// with two threads this is the paper's double buffering ("letting the
// disk thread choose which block to transfer next" — the shared queue
// plus the disk's FCFS service realizes the planned order).
type blockIter struct {
	blocks []int
	next   int
}

func (it *blockIter) take() (int, bool) {
	if it.next >= len(it.blocks) {
		return 0, false
	}
	b := it.blocks[it.next]
	it.next++
	return b, true
}

// readLoop: disk → buffer → Memputs to the destination CPs. The thread
// owns its block buffer for life: one of the paper's buffers per disk,
// a slab it hands back when it returns.
func (s *Server) readLoop(w *sim.Proc, dd *disk.Disk, it *blockIter, dec hpf.Access, delivered *sim.WaitGroup) {
	bs := int64(s.f.BlockSize)
	buf := sim.GetSlab(int(bs))
	defer sim.PutSlab(buf)
	for {
		b, ok := it.take()
		if !ok {
			return
		}
		s.m2.Blocks++
		if s.retry.Do(w, dd, false, s.f.LBN(b), buf) != nil {
			// Retry budget exhausted: the block is lost (counted in
			// DiskLost and surfaced as a typed failure by the runner);
			// nothing was read, so there is no data to deliver.
			continue
		}
		runs := dec.RunsInRange(int64(b)*bs, bs)
		if s.prm.GatherScatter {
			s.memputGather(w, b, buf, runs, delivered)
			continue
		}
		sent := sim.NewWaitGroup(s.m.Eng, "dd-sent", 0)
		for _, r := range runs {
			s.m2.Memputs++
			delivered.Add(1)
			sent.Add(1)
			piece := buf[r.FileOff-int64(b)*bs : r.FileOff-int64(b)*bs+r.Len]
			s.m.Memput(s.node, s.m.CPs[r.CP], int(r.MemOff), piece, s.prm.MemputCPU,
				sent.DoneC(), delivered.DoneC())
		}
		// The buffer is reusable once the NIC has drained it.
		sent.Wait(w)
	}
}

// writeLoop: Memgets from the source CPs → buffer → disk. Like readLoop
// the thread owns its block buffer; a second one, for the old contents
// of partly covered blocks, is taken on the first such block.
func (s *Server) writeLoop(w *sim.Proc, dd *disk.Disk, it *blockIter, dec hpf.Access, delivered *sim.WaitGroup) {
	bs := int64(s.f.BlockSize)
	buf := sim.GetSlab(int(bs))
	var old []byte
	defer func() {
		sim.PutSlab(buf)
		sim.PutSlab(old)
	}()
	for {
		b, ok := it.take()
		if !ok {
			return
		}
		s.m2.Blocks++
		runs := dec.RunsInRange(int64(b)*bs, bs)
		// Only run-covered bytes are ever read out of buf, so the
		// previous block's bytes need no clearing.
		covered := coveredBytes(runs)
		arrived := sim.NewWaitGroup(s.m.Eng, "dd-arrived", 0)
		if s.prm.GatherScatter {
			s.memgetGather(w, b, buf, runs, arrived)
		} else {
			for _, r := range runs {
				s.m2.Memgets++
				arrived.Add(1)
				dst := buf[r.FileOff-int64(b)*bs : r.FileOff-int64(b)*bs+r.Len]
				s.m.Memget(s.node, s.m.CPs[r.CP], int(r.MemOff), dst,
					s.prm.MemgetCPU, s.prm.MemgetRemoteCPU, arrived.DoneC())
			}
		}
		arrived.Wait(w)
		out := buf
		if covered < bs {
			// The pattern does not cover the whole block: preserve the
			// uncovered bytes (read-modify-write) by overlaying the
			// fetched runs onto the block's current contents.
			s.m2.PartialBlockRMW++
			if old == nil {
				old = sim.GetSlab(int(bs))
			}
			if s.retry.Do(w, dd, false, s.f.LBN(b), old) == nil {
				blockOff := int64(b) * bs
				for _, r := range runs {
					copy(old[r.FileOff-blockOff:r.FileOff-blockOff+r.Len], buf[r.FileOff-blockOff:r.FileOff-blockOff+r.Len])
				}
				out = old
			}
			// On a lost RMW read the fetched runs are written as-is: the
			// loss of the uncovered bytes is already counted in DiskLost
			// and reported as a typed failure.
		}
		s.retry.Do(w, dd, true, s.f.LBN(b), out)
		// Durability is awaited via disk.Flush in serve; 'delivered' is
		// only tracked for reads.
	}
}

// coveredBytes returns the number of distinct bytes the runs cover.
// Workload request streams may carry overlapping slots, so each byte
// must be counted once: summing run lengths would overstate coverage and
// let a partial block skip its read-modify-write, writing stale scratch
// bytes over file data the pattern never touched. Runs arrive sorted by
// FileOff (the RunsInRange contract), so a single interval-merge pass
// suffices.
func coveredBytes(runs []hpf.Run) int64 {
	var covered int64
	var lo, hi int64
	for i, r := range runs {
		if i == 0 || r.FileOff > hi {
			covered += hi - lo
			lo, hi = r.FileOff, r.FileOff+r.Len
			continue
		}
		if end := r.FileOff + r.Len; end > hi {
			hi = end
		}
	}
	return covered + (hi - lo)
}

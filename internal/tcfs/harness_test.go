package tcfs

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ddio/internal/cluster"
	"ddio/internal/disk"
	"ddio/internal/hpf"
	"ddio/internal/netsim"
	"ddio/internal/pfs"
	"ddio/internal/sim"
	"ddio/internal/workload"
)

// rig is a small machine + file + traditional-caching file system.
type rig struct {
	eng     *sim.Engine
	m       *cluster.Machine
	f       *pfs.File
	servers []*Server
	disks   []*disk.Disk
}

type rigOpts struct {
	ncp, niop, ndisks int
	blocks            int
	blockSize         int
	layout            pfs.LayoutKind
	prm               *Params
	seed              int64
}

func newRig(t *testing.T, o rigOpts) *rig {
	t.Helper()
	if o.blockSize == 0 {
		o.blockSize = 8192
	}
	if o.seed == 0 {
		o.seed = 1
	}
	e := sim.NewEngine()
	t.Cleanup(e.Close)
	rng := sim.NewRand(o.seed)
	m := cluster.New(e, netsim.DefaultConfig(), o.ncp, o.niop, rng)
	disks := make([]*disk.Disk, o.ndisks)
	buses := make([]*sim.Pipe, o.niop)
	for i := range buses {
		buses[i] = sim.NewPipe(e, fmt.Sprintf("bus%d", i), 10e6, 100*time.Microsecond)
	}
	for d := range disks {
		disks[d] = disk.New(e, fmt.Sprintf("d%d", d), disk.HP97560(), buses[d%o.niop])
	}
	f, err := pfs.NewFile(disks, o.blockSize, o.blocks, o.layout, rng)
	if err != nil {
		t.Fatal(err)
	}
	prm := DefaultParams()
	if o.prm != nil {
		prm = *o.prm
	}
	servers := make([]*Server, o.niop)
	for i := range servers {
		servers[i] = NewServer(m, m.IOPs[i], f, o.ncp, prm)
	}
	return &rig{eng: e, m: m, f: f, servers: servers, disks: disks}
}

// transfer runs a whole-file transfer under the given decomposition and
// returns the elapsed virtual time.
func (r *rig) transfer(t *testing.T, dec *hpf.Decomp, write bool, prm Params) time.Duration {
	t.Helper()
	client := NewClient(r.m, r.f, dec, r.servers, prm)
	for cp, node := range r.m.CPs {
		node.Mem = make([]byte, dec.CPBytes(cp))
	}
	if write {
		for cp, node := range r.m.CPs {
			for _, ch := range dec.Chunks(cp) {
				pfs.FillImage(node.Mem[ch.MemOff:ch.MemOff+ch.Len], ch.FileOff)
			}
		}
	} else {
		r.f.Preload()
	}
	for cp := range r.m.CPs {
		cp := cp
		r.eng.Go(fmt.Sprintf("cp%d", cp), func(p *sim.Proc) { client.TransferCP(p, cp, write) })
	}
	return r.run(t, client)
}

// stream runs one workload phase, CP i issuing streams[i] (CPs past the
// end issue nothing), with each request's memory filled from the file
// image (for writes) or the file preloaded (for reads), and returns the
// elapsed virtual time.
func (r *rig) stream(t *testing.T, streams [][]workload.Req) time.Duration {
	t.Helper()
	client := NewClient(r.m, r.f, nil, r.servers, DefaultParams())
	r.f.Preload()
	for cp, node := range r.m.CPs {
		var reqs []workload.Req
		if cp < len(streams) {
			reqs = streams[cp]
		}
		node.Mem = make([]byte, r.f.Size())
		for _, rq := range reqs {
			if rq.Write {
				pfs.FillImage(node.Mem[rq.MemOff:rq.MemOff+rq.Len], rq.FileOff)
			}
		}
		cp := cp
		r.eng.Go(fmt.Sprintf("cp%d", cp), func(p *sim.Proc) { client.StreamCP(p, cp, reqs) })
	}
	return r.run(t, client)
}

// run runs the engine until the client's transfer is done, checks that
// no thread outlived it, and returns the elapsed virtual time.
func (r *rig) run(t *testing.T, client *Client) time.Duration {
	t.Helper()
	r.eng.Run()
	if client.EndTime() == 0 {
		t.Fatalf("transfer did not complete; blocked: %v", r.eng.BlockedProcs())
	}
	// Proc-leak hygiene: every transient proc (CP bodies, request and
	// prefetch handlers, sync handlers) must have exited; only daemons —
	// the dispatchers and disk servers — may remain.
	if n := r.eng.NumBlocked(); n != 0 {
		t.Fatalf("proc leak: %d non-daemon procs blocked after run: %v", n, r.eng.BlockedProcs())
	}
	// No handler outlives its request, daemon or not.
	for _, b := range r.eng.BlockedProcs() {
		if strings.HasPrefix(b, "tc-svc:") {
			t.Fatalf("handler outlived its request: %s", b)
		}
	}
	return client.EndTime().Duration()
}

// verifyRead checks every CP buffer against the file image.
func (r *rig) verifyRead(t *testing.T, dec *hpf.Decomp) {
	t.Helper()
	for cp, node := range r.m.CPs {
		for _, ch := range dec.Chunks(cp) {
			if i := pfs.VerifyImage(node.Mem[ch.MemOff:ch.MemOff+ch.Len], ch.FileOff); i >= 0 {
				t.Fatalf("cp%d chunk at %d: mismatch at %d", cp, ch.FileOff, i)
			}
		}
	}
}

// verifyWrite checks the on-disk file against the image.
func (r *rig) verifyWrite(t *testing.T) {
	t.Helper()
	if i := r.f.VerifyRange(0, r.f.Size(), make([]byte, r.f.BlockSize)); i >= 0 {
		t.Fatalf("file mismatch at offset %d", i)
	}
}

func (r *rig) totalMetrics() Metrics {
	var m Metrics
	for _, s := range r.servers {
		sm := s.Metrics()
		m.Requests += sm.Requests
		m.Reads += sm.Reads
		m.Writes += sm.Writes
		m.CacheHits += sm.CacheHits
		m.CacheMiss += sm.CacheMiss
		m.Prefetches += sm.Prefetches
		m.Flushes += sm.Flushes
		m.PartialRMW += sm.PartialRMW
	}
	return m
}

func mustDecomp(t *testing.T, pattern string, fileBytes int64, recSize, ncp int) *hpf.Decomp {
	t.Helper()
	pat, err := hpf.ParsePattern(pattern)
	if err != nil {
		t.Fatal(err)
	}
	d, err := pat.Decomp(fileBytes, recSize, ncp)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

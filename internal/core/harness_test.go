package core

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
)

// rig is a small machine + file + disk-directed file system.
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
	layout            pfs.LayoutKind
	prm               *Params
	seed              int64
}

func newRig(t *testing.T, o rigOpts) *rig {
	t.Helper()
	if o.seed == 0 {
		o.seed = 1
	}
	e := sim.NewEngine()
	t.Cleanup(e.Close)
	rng := sim.NewRand(o.seed)
	m := cluster.New(e, netsim.DefaultConfig(), o.ncp, o.niop, rng)
	buses := make([]*sim.Pipe, o.niop)
	for i := range buses {
		buses[i] = sim.NewPipe(e, fmt.Sprintf("bus%d", i), 10e6, 100*time.Microsecond)
	}
	disks := make([]*disk.Disk, o.ndisks)
	for d := range disks {
		disks[d] = disk.New(e, fmt.Sprintf("d%d", d), disk.HP97560(), buses[d%o.niop])
	}
	f, err := pfs.NewFile(disks, 8192, o.blocks, o.layout, rng)
	if err != nil {
		t.Fatal(err)
	}
	prm := DefaultParams()
	if o.prm != nil {
		prm = *o.prm
	}
	servers := make([]*Server, o.niop)
	for i := range servers {
		servers[i] = NewServer(m, m.IOPs[i], f, prm)
	}
	return &rig{eng: e, m: m, f: f, servers: servers, disks: disks}
}

func (r *rig) collective(t *testing.T, dec *hpf.Decomp, write bool, prm Params) time.Duration {
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
	r.eng.Run()
	if client.EndTime() == 0 {
		t.Fatalf("collective did not complete; blocked: %v", r.eng.BlockedProcs())
	}
	// Proc-leak hygiene: every transient proc (CP bodies, dd-work
	// request workers, buffer threads) must have exited; only daemons —
	// the dispatchers and disk servers — may remain.
	if n := r.eng.NumBlocked(); n != 0 {
		t.Fatalf("proc leak: %d non-daemon procs blocked after run: %v", n, r.eng.BlockedProcs())
	}
	// No request worker outlives its request, daemon or not.
	for _, b := range r.eng.BlockedProcs() {
		if strings.HasPrefix(b, "dd-work:") {
			t.Fatalf("request worker outlived its request: %s", b)
		}
	}
	return client.EndTime().Duration()
}

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

func (r *rig) verifyWrite(t *testing.T) {
	t.Helper()
	r.verifyWritten(t, 0, r.f.Size())
}

// verifyWritten checks that file range [off, off+n) was written with
// the image.
func (r *rig) verifyWritten(t *testing.T, off, n int64) {
	t.Helper()
	if i := r.f.VerifyRange(off, n, make([]byte, r.f.BlockSize)); i >= 0 {
		t.Fatalf("written range [%d, %d): mismatch at offset %d", off, off+n, i)
	}
}

// verifyPreloaded checks that file range [off, off+n), which the run
// did not write, still reads back from the disks as the preloaded image.
func (r *rig) verifyPreloaded(t *testing.T, off, n int64) {
	t.Helper()
	bs := int64(r.f.BlockSize)
	buf := make([]byte, bs)
	for end := off + n; off < end; off = (off/bs + 1) * bs {
		b := int(off / bs)
		r.f.Disks[r.f.DiskOf(b)].ReadData(r.f.LBN(b), buf)
		lo, hi := off%bs, min(end-int64(b)*bs, bs)
		if i := pfs.VerifyImage(buf[lo:hi], off); i >= 0 {
			t.Fatalf("preloaded range [%d, %d): mismatch at offset %d", off, end, off+int64(i))
		}
	}
}

func (r *rig) totalMetrics() Metrics {
	var m Metrics
	for _, s := range r.servers {
		sm := s.Metrics()
		m.Requests += sm.Requests
		m.Blocks += sm.Blocks
		m.Memputs += sm.Memputs
		m.Memgets += sm.Memgets
		m.PartialBlockRMW += sm.PartialBlockRMW
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

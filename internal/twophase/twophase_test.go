package twophase

import (
	"fmt"
	"testing"
	"time"

	"ddio/internal/cluster"
	"ddio/internal/disk"
	"ddio/internal/hpf"
	"ddio/internal/netsim"
	"ddio/internal/pfs"
	"ddio/internal/sim"
	"ddio/internal/tcfs"
)

type rig struct {
	eng     *sim.Engine
	m       *cluster.Machine
	f       *pfs.File
	servers []*tcfs.Server
}

func newRig(t *testing.T, ncp, niop, ndisks, blocks int, layout pfs.LayoutKind) *rig {
	t.Helper()
	e := sim.NewEngine()
	t.Cleanup(e.Close)
	rng := sim.NewRand(1)
	m := cluster.New(e, netsim.DefaultConfig(), ncp, niop, rng)
	buses := make([]*sim.Pipe, niop)
	for i := range buses {
		buses[i] = sim.NewPipe(e, fmt.Sprintf("bus%d", i), 10e6, 100*time.Microsecond)
	}
	disks := make([]*disk.Disk, ndisks)
	for d := range disks {
		disks[d] = disk.New(e, fmt.Sprintf("d%d", d), disk.HP97560(), buses[d%niop])
	}
	f, err := pfs.NewFile(disks, 8192, blocks, layout, rng)
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*tcfs.Server, niop)
	for i := range servers {
		servers[i] = tcfs.NewServer(m, m.IOPs[i], f, ncp, tcfs.DefaultParams())
	}
	return &rig{eng: e, m: m, f: f, servers: servers}
}

// newClient builds the whole-file two-phase client for dec: the
// conforming distribution is the file's 1-D BLOCK decomposition, staged
// just above each CP's application buffer.
func (r *rig) newClient(t *testing.T, dec *hpf.Decomp) (*Client, *hpf.Decomp, []int64) {
	t.Helper()
	conf, err := hpf.New1D(int(r.f.Size()/int64(dec.RecordSize)), hpf.Block, dec.RecordSize, len(r.m.CPs))
	if err != nil {
		t.Fatal(err)
	}
	stage := make([]int64, len(r.m.CPs))
	for cp := range stage {
		stage[cp] = dec.CPBytes(cp)
	}
	return NewClient(r.m, r.f, dec, conf, stage, r.servers, tcfs.DefaultParams(), DefaultParams()), conf, stage
}

// run transfers the whole file under dec and returns the conforming
// distribution and its staging bases.
func (r *rig) run(t *testing.T, dec *hpf.Decomp, write bool) (*hpf.Decomp, []int64) {
	t.Helper()
	client, conf, stage := r.newClient(t, dec)
	for cp, node := range r.m.CPs {
		node.Mem = make([]byte, stage[cp]+conf.CPBytes(cp))
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
		t.Fatalf("two-phase transfer did not complete; blocked: %v", r.eng.BlockedProcs())
	}
	return conf, stage
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

func TestTwoPhaseReadCorrectness(t *testing.T) {
	for _, pattern := range []string{"rn", "rb", "rc", "rbb", "rcc", "rcn"} {
		r := newRig(t, 4, 2, 4, 32, pfs.RandomBlocks)
		dec := mustDecomp(t, pattern, r.f.Size(), 1024, 4)
		r.run(t, dec, false)
		for cp, node := range r.m.CPs {
			for _, ch := range dec.Chunks(cp) {
				if i := pfs.VerifyImage(node.Mem[ch.MemOff:ch.MemOff+ch.Len], ch.FileOff); i >= 0 {
					t.Fatalf("%s cp%d: mismatch at %d", pattern, cp, i)
				}
			}
		}
	}
}

func TestTwoPhaseWriteCorrectness(t *testing.T) {
	for _, pattern := range []string{"wb", "wc", "wbb", "wcn"} {
		r := newRig(t, 4, 2, 4, 32, pfs.Contiguous)
		dec := mustDecomp(t, pattern, r.f.Size(), 1024, 4)
		r.run(t, dec, true)
		if i := r.f.VerifyRange(0, r.f.Size(), make([]byte, r.f.BlockSize)); i >= 0 {
			t.Fatalf("%s: file mismatch at %d", pattern, i)
		}
	}
}

func TestTwoPhaseMemoryOverhead(t *testing.T) {
	// Two-phase needs application buffer + conforming staging — the
	// extra memory cost the paper's §7.1 lists against it. After a read
	// the staging area above each application buffer holds that CP's
	// conforming block of the file.
	r := newRig(t, 4, 2, 4, 32, pfs.Contiguous)
	dec := mustDecomp(t, "rc", r.f.Size(), 1024, 4)
	conf, stage := r.run(t, dec, false)
	for cp, node := range r.m.CPs {
		if conf.CPBytes(cp) == 0 {
			t.Fatalf("cp%d: no staging area", cp)
		}
		for _, ch := range conf.Chunks(cp) {
			off := stage[cp] + ch.MemOff
			if i := pfs.VerifyImage(node.Mem[off:off+ch.Len], ch.FileOff); i >= 0 {
				t.Fatalf("cp%d staging area: mismatch at %d", cp, i)
			}
		}
	}
}

func TestTwoPhaseConformingPhaseIsBlockDistributed(t *testing.T) {
	// The conforming distribution must make large contiguous requests:
	// request count equals the block count, not the (much larger)
	// cyclic chunk count.
	r := newRig(t, 4, 2, 4, 32, pfs.Contiguous)
	dec := mustDecomp(t, "rc", r.f.Size(), 8, 4) // 8-byte cyclic: 32768 chunks
	r.run(t, dec, false)
	var requests int64
	for _, s := range r.servers {
		requests += s.Metrics().Requests
	}
	if requests != 32 {
		t.Fatalf("conforming phase made %d IOP requests, want 32 (one per block)", requests)
	}
}

func TestTwoPhaseLocalDataIsCopiedNotSent(t *testing.T) {
	// rb == the conforming distribution: the permutation is all local
	// copies, no network messages beyond the I/O phase itself.
	r := newRig(t, 4, 2, 4, 16, pfs.Contiguous)
	dec := mustDecomp(t, "rb", r.f.Size(), 8192, 4)
	r.run(t, dec, false)
	// rb equals the conforming distribution, so the permutation degrades
	// to pure local copies; the strong invariant is a byte-identical
	// result without any cross-CP placement.
	for cp, node := range r.m.CPs {
		for _, ch := range dec.Chunks(cp) {
			if i := pfs.VerifyImage(node.Mem[ch.MemOff:ch.MemOff+ch.Len], ch.FileOff); i >= 0 {
				t.Fatalf("cp%d mismatch at %d", cp, i)
			}
		}
	}
}

func TestTwoPhaseString(t *testing.T) {
	r := newRig(t, 2, 1, 1, 4, pfs.Contiguous)
	dec := mustDecomp(t, "rb", r.f.Size(), 8192, 2)
	client, _, _ := r.newClient(t, dec)
	if client.String() == "" {
		t.Fatal("empty description")
	}
}

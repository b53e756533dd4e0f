package exp

import (
	"ddio/internal/cluster"
	"ddio/internal/hpf"
	"ddio/internal/pfs"
	"ddio/internal/sim"
	"ddio/internal/workload"
)

// phaseExec is one resolved workload phase bound to a method: the
// per-CP body and where the phase's completion time is read from.
type phaseExec struct {
	runCP func(p *sim.Proc, cp int)
	end   func() sim.Time
}

// resolve binds the run's workload to its geometry. A classic run is
// one collective phase: cfg.Pattern decomposed over the whole file.
func resolve(cfg *Config, rng *sim.Rand) (*workload.Resolved, error) {
	if cfg.Workload.Enabled() {
		return cfg.Workload.Resolve(workload.Shape{
			NCP:        cfg.NCP,
			FileBytes:  cfg.FileBytes,
			BlockSize:  cfg.BlockSize,
			RecordSize: cfg.RecordSize,
		}, rng)
	}
	pat, err := hpf.ParsePattern(cfg.Pattern)
	if err != nil {
		return nil, err
	}
	dec, err := pat.Decomp(cfg.FileBytes, cfg.RecordSize, cfg.NCP)
	if err != nil {
		return nil, err
	}
	ph := workload.ResolvedPhase{Pattern: cfg.Pattern, Collective: true, Dec: dec, Write: pat.Write}
	for cp := 0; cp < cfg.NCP; cp++ {
		ph.Bytes += dec.CPBytes(cp)
	}
	return &workload.Resolved{Phases: []workload.ResolvedPhase{ph}, Bytes: ph.Bytes}, nil
}

// transfer is one collective transfer of a phase: an access over the
// phase's application buffer and, for two-phase I/O, the conforming
// distribution it is staged through.
type transfer struct {
	acc   hpf.Access
	write bool
	conf  hpf.Access // two-phase conforming distribution, else nil
	stage []int64    // per-CP base of conf's staging area
}

// layout is a run's per-CP memory: each phase's application buffer,
// then (for two-phase I/O) its staging areas, stacked in phase order.
type layout struct {
	appBase   [][]int64    // [phase][cp] application buffer base
	transfers [][]transfer // [phase] collective transfers, reads first
	memBytes  []int64      // [cp] total memory
}

// layOut stacks the resolved phases' buffers in each CP's memory.
func layOut(cfg *Config, res *workload.Resolved) (*layout, error) {
	lay := &layout{
		appBase:   make([][]int64, len(res.Phases)),
		transfers: make([][]transfer, len(res.Phases)),
		memBytes:  make([]int64, cfg.NCP),
	}
	// stack reserves a region of size(cp) bytes above each CP's current
	// top and returns the regions' bases.
	stack := func(size func(cp int) int64) []int64 {
		base := append([]int64(nil), lay.memBytes...)
		for cp := range lay.memBytes {
			lay.memBytes[cp] += size(cp)
		}
		return base
	}
	twoPhase := cfg.Method == TwoPhase
	for i := range res.Phases {
		ph := &res.Phases[i]
		lay.appBase[i] = stack(ph.CPBytes)
		if ph.Collective {
			x := transfer{acc: ph.Dec, write: ph.Write}
			if twoPhase {
				rec := ph.Dec.RecordSize
				conf, err := hpf.New1D(int(cfg.FileBytes/int64(rec)), hpf.Block, rec, cfg.NCP)
				if err != nil {
					return nil, err
				}
				x.conf, x.stage = conf, stack(conf.CPBytes)
			}
			lay.transfers[i] = []transfer{x}
			continue
		}
		for k, acc := range [2]*workload.SlotAccess{ph.ReadAcc, ph.WriteAcc} {
			if acc == nil {
				continue
			}
			x := transfer{acc: acc, write: k == 1}
			if twoPhase {
				conf := workload.Conforming(acc, cfg.NCP)
				x.conf, x.stage = conf, stack(conf.CPBytes)
			}
			lay.transfers[i] = append(lay.transfers[i], x)
		}
	}
	return lay, nil
}

// fillWrites seeds the memory behind a phase's write requests (and
// write-collective chunks) with the deterministic file image, so what
// lands on disk is verifiable.
func fillWrites(ph *workload.ResolvedPhase, base []int64, cps []*cluster.Node) {
	if ph.Collective {
		if !ph.Write {
			return
		}
		for cp, node := range cps {
			for _, ch := range ph.Dec.Chunks(cp) {
				off := base[cp] + ch.MemOff
				pfs.FillImage(node.Mem[off:off+ch.Len], ch.FileOff)
			}
		}
		return
	}
	for cp, node := range cps {
		for _, rq := range ph.Streams[cp] {
			if !rq.Write {
				continue
			}
			off := base[cp] + rq.MemOff
			pfs.FillImage(node.Mem[off:off+rq.Len], rq.FileOff)
		}
	}
}

// verifyWorkload checks every byte the run moved: read buffers against
// the file image, written file ranges against the disks' final contents
// (read back one block at a time). A collective write covers the whole
// file, so it is checked block by block, once.
func verifyWorkload(res *workload.Resolved, appBase [][]int64, f *pfs.File, m *cluster.Machine) int {
	errs := 0
	var buf []byte // one block to read written data back into, made on first use
	badWrite := func(off, n int64) bool {
		if buf == nil {
			buf = make([]byte, f.BlockSize)
		}
		return f.VerifyRange(off, n, buf) >= 0
	}
	fileChecked := false
	for i := range res.Phases {
		ph := &res.Phases[i]
		base := appBase[i]
		if ph.Collective && ph.Write {
			if !fileChecked {
				fileChecked = true
				bs := int64(f.BlockSize)
				for off := int64(0); off < f.Size(); off += bs {
					if badWrite(off, bs) {
						errs++
					}
				}
			}
			continue
		}
		if ph.Collective {
			for cp, node := range m.CPs {
				for _, ch := range ph.Dec.Chunks(cp) {
					off := base[cp] + ch.MemOff
					if pfs.VerifyImage(node.Mem[off:off+ch.Len], ch.FileOff) >= 0 {
						errs++
					}
				}
			}
			continue
		}
		for cp, node := range m.CPs {
			for _, rq := range ph.Streams[cp] {
				if rq.Write {
					if badWrite(rq.FileOff, rq.Len) {
						errs++
					}
					continue
				}
				off := base[cp] + rq.MemOff
				if pfs.VerifyImage(node.Mem[off:off+rq.Len], rq.FileOff) >= 0 {
					errs++
				}
			}
		}
	}
	return errs
}

package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"ddio/internal/hpf"
	"ddio/internal/sim"
)

// Req is one resolved request of a phase's per-CP stream.
type Req struct {
	Write   bool
	FileOff int64
	Len     int64
	MemOff  int64 // offset within the phase's per-CP buffer
	// At is the request's release time relative to the phase start
	// (open arrivals and trace replay); zero means immediately.
	At time.Duration
	// Think is slept before issuing (closed-loop phases).
	Think time.Duration
}

// ResolvedPhase is one phase bound to a run geometry: either a
// collective matrix transfer (Dec + Write) or per-CP request streams
// with the access views the file-system methods consume.
type ResolvedPhase struct {
	Pattern    string
	Collective bool

	// Collective phases.
	Dec   *hpf.Decomp
	Write bool

	// Stream phases.
	Streams  [][]Req     // requests by CP, in issue order
	ReadAcc  *SlotAccess // the phase's read slots (nil when none)
	WriteAcc *SlotAccess // the phase's write slots (nil when none)
	// Delay is each CP's arrival makespan: how long after the phase
	// start its last request is released (think times summed for a
	// closed loop, the last arrival for open and trace phases). The
	// collective methods wait it out before transferring — a
	// disk-directed or two-phase collective cannot start before the
	// requests exist.
	Delay []time.Duration

	Bytes int64 // application bytes the phase moves
}

// Resolved is a spec bound to a run geometry, ready to drive the
// simulator.
type Resolved struct {
	Phases []ResolvedPhase
	Bytes  int64 // total application bytes across phases
	Reads  int   // stream read requests
	Writes int   // stream write requests
}

// CPBytes returns cp's application-buffer size for the phase: its
// share of a collective decomposition, or the end of its last request.
func (ph *ResolvedPhase) CPBytes(cp int) int64 {
	if ph.Collective {
		return ph.Dec.CPBytes(cp)
	}
	var n int64
	for _, rq := range ph.Streams[cp] {
		if end := rq.MemOff + rq.Len; end > n {
			n = end
		}
	}
	return n
}

// Resolve binds the spec to a run geometry, sampling every request from
// dedicated sub-streams of rng ("wl:p<phase>:cp<cp>") so the layout and
// jitter streams — and therefore runs without a workload — are
// untouched, and so the resolved workload is identical for any worker
// count.
func (s *Spec) Resolve(shape Shape, rng *sim.Rand) (*Resolved, error) {
	if !s.Enabled() {
		return nil, errf("spec", "resolving a disabled workload")
	}
	if err := s.Validate(&shape); err != nil {
		return nil, err
	}
	out := &Resolved{Phases: make([]ResolvedPhase, len(s.Phases))}
	for i := range s.Phases {
		p := &s.Phases[i]
		rp := &out.Phases[i]
		rp.Pattern = p.Pattern
		kind, _ := p.kind()
		switch kind {
		case kindCollective:
			rec := p.RecordSize
			if rec == 0 {
				rec = shape.RecordSize
			}
			pat, _ := hpf.ParsePattern(p.Pattern)
			dec, err := pat.Decomp(shape.FileBytes, rec, shape.NCP)
			if err != nil {
				return nil, errf(fmt.Sprintf("phases[%d].pattern", i), "%v", err)
			}
			rp.Collective = true
			rp.Dec = dec
			rp.Write = pat.Write
			for cp := 0; cp < shape.NCP; cp++ {
				rp.Bytes += dec.CPBytes(cp)
			}
		case kindTrace:
			rp.Streams = make([][]Req, shape.NCP)
			rp.Delay = make([]time.Duration, shape.NCP)
			mem := make([]int64, shape.NCP)
			for _, tr := range p.Trace {
				cp := tr.Node % shape.NCP
				rp.Streams[cp] = append(rp.Streams[cp], Req{
					Write:   tr.Op == "w",
					FileOff: tr.Off,
					Len:     tr.Bytes,
					MemOff:  mem[cp],
					At:      tr.T,
				})
				mem[cp] += tr.Bytes
				if tr.T > rp.Delay[cp] {
					rp.Delay[cp] = tr.T
				}
			}
		case kindSynthetic:
			p.resolveSynthetic(rp, i, shape, rng)
		}
		if !rp.Collective {
			var readSlots, writeSlots []Slot
			for cp, reqs := range rp.Streams {
				for _, rq := range reqs {
					slot := Slot{CP: cp, FileOff: rq.FileOff, MemOff: rq.MemOff, Len: rq.Len}
					if rq.Write {
						writeSlots = append(writeSlots, slot)
						out.Writes++
					} else {
						readSlots = append(readSlots, slot)
						out.Reads++
					}
					rp.Bytes += rq.Len
				}
			}
			if len(readSlots) > 0 {
				rp.ReadAcc = NewSlotAccess(readSlots, shape.NCP)
			}
			if len(writeSlots) > 0 {
				rp.WriteAcc = NewSlotAccess(writeSlots, shape.NCP)
			}
		}
		out.Bytes += rp.Bytes
	}
	return out, nil
}

// resolveSynthetic samples one synthetic phase's per-CP streams.
func (p *Phase) resolveSynthetic(rp *ResolvedPhase, phase int, shape Shape, rng *sim.Rand) {
	counts := splitRequests(p, shape.NCP)
	readFrac := 1.0
	if p.ReadFraction != nil {
		readFrac = *p.ReadFraction
	}
	rp.Streams = make([][]Req, shape.NCP)
	rp.Delay = make([]time.Duration, shape.NCP)
	for cp := 0; cp < shape.NCP; cp++ {
		str := rng.Stream(fmt.Sprintf("wl:p%d:cp%d", phase, cp))
		zipfs := map[int]*rand.Zipf{}
		var mem int64
		var arrive time.Duration // cumulative Poisson arrival time
		reqs := make([]Req, 0, counts[cp])
		for k := 0; k < counts[cp]; k++ {
			L := int64(p.RecordSize)
			if len(p.RecordSizes) > 0 {
				L = int64(p.RecordSizes[str.Intn(len(p.RecordSizes))])
			} else if L == 0 {
				L = int64(shape.RecordSize)
			}
			n := shape.FileBytes / L // records of this size in the file
			var idx int64
			switch p.Pattern {
			case PatternZipf:
				z := zipfs[int(L)]
				if z == nil {
					z = rand.NewZipf(str.Rand, p.Alpha, 1, uint64(n-1))
					zipfs[int(L)] = z
				}
				idx = int64(z.Uint64())
			case PatternHotspot:
				hotN := int64(float64(n) * p.HotFraction)
				if hotN < 1 {
					hotN = 1
				}
				if hotN > n {
					hotN = n
				}
				if cold := n - hotN; cold > 0 && str.Float64() >= p.HotWeight {
					idx = hotN + str.Int63n(cold)
				} else {
					idx = str.Int63n(hotN)
				}
			default: // uniform, skew
				idx = str.Int63n(n)
			}
			rq := Req{FileOff: idx * L, Len: L, MemOff: mem}
			if readFrac < 1 && str.Float64() >= readFrac {
				rq.Write = true
			}
			switch p.Arrival {
			case "closed":
				rq.Think = time.Duration(str.ExpFloat64() * float64(p.Think))
				rp.Delay[cp] += rq.Think
			case "poisson":
				arrive += time.Duration(str.ExpFloat64() / p.RatePerSec * float64(time.Second))
				rq.At = arrive
				rp.Delay[cp] = arrive
			}
			mem += L
			reqs = append(reqs, rq)
		}
		rp.Streams[cp] = reqs
	}
}

// splitRequests deals a phase's total request count over the CPs:
// evenly (remainder to the lowest CPs), except under "skew" where CP i
// receives a share proportional to 1/(i+1)^alpha, rounded by largest
// remainder so the total is preserved exactly.
func splitRequests(p *Phase, ncp int) []int {
	counts := make([]int, ncp)
	if p.Pattern != PatternSkew {
		base, rem := p.Requests/ncp, p.Requests%ncp
		for cp := range counts {
			counts[cp] = base
			if cp < rem {
				counts[cp]++
			}
		}
		return counts
	}
	alpha := p.Alpha
	if alpha == 0 {
		alpha = 1
	}
	weights := make([]float64, ncp)
	var sum float64
	for cp := range weights {
		weights[cp] = 1 / math.Pow(float64(cp+1), alpha)
		sum += weights[cp]
	}
	fracs := make([]float64, ncp)
	total := 0
	for cp := range counts {
		share := float64(p.Requests) * weights[cp] / sum
		counts[cp] = int(share)
		fracs[cp] = share - float64(counts[cp])
		total += counts[cp]
	}
	// Largest-remainder rounding, ties to the lower CP: deterministic.
	order := make([]int, ncp)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return fracs[order[a]] > fracs[order[b]] })
	for i := 0; total < p.Requests; i = (i + 1) % ncp {
		counts[order[i]]++
		total++
	}
	return counts
}

package workload

import (
	"sort"

	"ddio/internal/hpf"
)

// Slot is one resolved request's place in a phase: a contiguous file
// range bound to a location in its CP's memory. Overlapping or
// duplicate file ranges are legal — each request gets its own slot (a
// read delivers its own copy; concurrent writes carry the identical
// deterministic file image, so their order cannot matter).
type Slot struct {
	CP      int
	FileOff int64
	MemOff  int64
	Len     int64
}

// SlotAccess is the hpf.Access over a set of request slots — the shape
// the three file-system methods consume for workload phases, exactly as
// they consume an hpf.Decomp for matrix phases.
type SlotAccess struct {
	perCP   [][]Slot // slots by CP, each sorted by (FileOff, MemOff)
	cpBytes []int64  // memory footprint per CP
	maxLen  int64    // longest slot, bounding how far back an overlap starts
}

// NewSlotAccess builds the access for a slot set over ncp CPs. Slots
// are sorted per CP by (FileOff, MemOff); input order does not matter.
func NewSlotAccess(slots []Slot, ncp int) *SlotAccess {
	a := &SlotAccess{perCP: make([][]Slot, ncp), cpBytes: make([]int64, ncp)}
	for _, s := range slots {
		a.perCP[s.CP] = append(a.perCP[s.CP], s)
		a.maxLen = max(a.maxLen, s.Len)
		if end := s.MemOff + s.Len; end > a.cpBytes[s.CP] {
			a.cpBytes[s.CP] = end
		}
	}
	for cp := range a.perCP {
		sort.Slice(a.perCP[cp], func(i, j int) bool {
			si, sj := a.perCP[cp][i], a.perCP[cp][j]
			if si.FileOff != sj.FileOff {
				return si.FileOff < sj.FileOff
			}
			return si.MemOff < sj.MemOff
		})
	}
	return a
}

// NCP returns the CP count the access was built over.
func (a *SlotAccess) NCP() int { return len(a.perCP) }

// Slots returns cp's slots sorted by (FileOff, MemOff).
func (a *SlotAccess) Slots(cp int) []Slot { return a.perCP[cp] }

// Bytes returns the total bytes the access moves (slot lengths summed;
// overlapping slots each count — each is a separate transfer).
func (a *SlotAccess) Bytes() int64 {
	var n int64
	for _, slots := range a.perCP {
		for _, s := range slots {
			n += s.Len
		}
	}
	return n
}

// Chunks returns cp's slots as chunks in ascending file order.
func (a *SlotAccess) Chunks(cp int) []hpf.Chunk {
	slots := a.perCP[cp]
	if len(slots) == 0 {
		return nil
	}
	out := make([]hpf.Chunk, len(slots))
	for i, s := range slots {
		out[i] = hpf.Chunk{FileOff: s.FileOff, MemOff: s.MemOff, Len: s.Len}
	}
	return out
}

// RunsInRange returns the runs covering file range [off, off+n) in
// ascending file order (ties broken by CP then memory offset, so the
// order is deterministic). Every overlapping slot yields its own run.
func (a *SlotAccess) RunsInRange(off, n int64) []hpf.Run {
	if n <= 0 {
		return nil
	}
	end := off + n
	var out []hpf.Run
	for cp, slots := range a.perCP {
		// Slots are sorted by FileOff, but their ends are not (lengths
		// differ), so skip only the prefix that ends before off even at
		// the longest length; the clip below drops the rest.
		i := sort.Search(len(slots), func(i int) bool {
			return slots[i].FileOff+a.maxLen > off
		})
		for ; i < len(slots) && slots[i].FileOff < end; i++ {
			s := slots[i]
			lo, hi := s.FileOff, s.FileOff+s.Len
			if lo < off {
				lo = off
			}
			if hi > end {
				hi = end
			}
			if hi <= lo {
				continue
			}
			out = append(out, hpf.Run{
				CP:      cp,
				FileOff: lo,
				MemOff:  s.MemOff + (lo - s.FileOff),
				Len:     hi - lo,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FileOff != out[j].FileOff {
			return out[i].FileOff < out[j].FileOff
		}
		if out[i].CP != out[j].CP {
			return out[i].CP < out[j].CP
		}
		return out[i].MemOff < out[j].MemOff
	})
	return out
}

// CPBytes returns cp's memory footprint (the end of its last slot).
func (a *SlotAccess) CPBytes(cp int) int64 {
	if cp >= len(a.cpBytes) {
		return 0
	}
	return a.cpBytes[cp]
}

// Partial reports true: request streams rarely cover the whole file,
// so disk-directed plans filter to the covered blocks.
func (a *SlotAccess) Partial() bool { return true }

var _ hpf.Access = (*SlotAccess)(nil)

// Offset shifts an access's memory addressing by a per-CP base,
// turning buffer-relative offsets into absolute CP-memory addresses
// (the experiment layer stacks multiple phases, and a staging area, in
// one CP memory). A nil or all-zero base returns acc unchanged.
func Offset(acc hpf.Access, base []int64) hpf.Access {
	all0 := true
	for _, b := range base {
		if b != 0 {
			all0 = false
			break
		}
	}
	if acc == nil || all0 {
		return acc
	}
	return &offsetAccess{acc: acc, base: base}
}

type offsetAccess struct {
	acc  hpf.Access
	base []int64
}

func (o *offsetAccess) baseOf(cp int) int64 {
	if cp < len(o.base) {
		return o.base[cp]
	}
	return 0
}

func (o *offsetAccess) Chunks(cp int) []hpf.Chunk {
	src := o.acc.Chunks(cp)
	if len(src) == 0 {
		return src
	}
	b := o.baseOf(cp)
	out := make([]hpf.Chunk, len(src))
	for i, c := range src {
		c.MemOff += b
		out[i] = c
	}
	return out
}

func (o *offsetAccess) RunsInRange(off, n int64) []hpf.Run {
	src := o.acc.RunsInRange(off, n)
	if len(src) == 0 {
		return src
	}
	out := make([]hpf.Run, len(src))
	for i, r := range src {
		r.MemOff += o.baseOf(r.CP)
		out[i] = r
	}
	return out
}

func (o *offsetAccess) CPBytes(cp int) int64 { return o.acc.CPBytes(cp) }
func (o *offsetAccess) Partial() bool        { return o.acc.Partial() }

// Conforming builds the conforming distribution of an access for
// two-phase I/O: the union of the file ranges the access touches,
// merged into maximal disjoint extents and dealt out contiguously over
// ncp CPs balanced by bytes — a generalized 1-D BLOCK staging layout.
// Memory offsets are buffer-relative (cumulative per CP).
func Conforming(acc *SlotAccess, ncp int) *SlotAccess {
	type ext struct{ lo, hi int64 }
	var exts []ext
	for _, slots := range acc.perCP {
		for _, s := range slots {
			exts = append(exts, ext{s.FileOff, s.FileOff + s.Len})
		}
	}
	sort.Slice(exts, func(i, j int) bool { return exts[i].lo < exts[j].lo })
	merged := exts[:0]
	for _, e := range exts {
		if n := len(merged); n > 0 && e.lo <= merged[n-1].hi {
			if e.hi > merged[n-1].hi {
				merged[n-1].hi = e.hi
			}
			continue
		}
		merged = append(merged, e)
	}
	var total int64
	for _, e := range merged {
		total += e.hi - e.lo
	}
	var slots []Slot
	var taken int64 // union bytes already dealt to CPs before cp
	i, pos := 0, int64(0)
	for cp := 0; cp < ncp && i < len(merged); cp++ {
		// cp's fair share: its slice of the union, in file order.
		want := total*int64(cp+1)/int64(ncp) - taken
		var mem int64
		for want > 0 && i < len(merged) {
			e := merged[i]
			if pos < e.lo {
				pos = e.lo
			}
			n := e.hi - pos
			if n > want {
				n = want
			}
			slots = append(slots, Slot{CP: cp, FileOff: pos, MemOff: mem, Len: n})
			mem += n
			pos += n
			taken += n
			want -= n
			if pos == e.hi {
				i++
			}
		}
	}
	return NewSlotAccess(slots, ncp)
}

package hpf

// Chunk is a maximal contiguous piece of the file owned by one CP,
// together with its location in that CP's memory buffer. Chunks are what
// a traditional file-system client must issue one request per (paper §2).
type Chunk struct {
	FileOff int64
	MemOff  int64
	Len     int64
}

// Chunks returns cp's chunk list in ascending file order. Adjacent runs
// that are contiguous in both file and memory are merged, so e.g. a
// BLOCK×NONE distribution of a matrix yields a single chunk per CP.
func (d *Decomp) Chunks(cp int) []Chunk {
	rec := int64(d.RecordSize)
	if d.All {
		return []Chunk{{FileOff: 0, MemOff: 0, Len: d.FileBytes()}}
	}
	if cp >= d.Rows.P*d.Cols.P || d.CPBytes(cp) == 0 {
		return nil
	}
	pr, pc := d.gridOf(cp)
	localCols := int64(d.Cols.Count(pc))
	// Each owned row gives one chunk per owned column run, except that
	// whole owned rows merge with the next owned row when it is adjacent.
	// Sizing the list once keeps the append below from regrowing it, the
	// largest allocation of a small-record run.
	n := d.Rows.Count(pr) * d.Cols.runCount(pc)
	if localCols == int64(d.Cols.N) {
		n = d.Rows.runCount(pr)
	}
	out := make([]Chunk, 0, n)
	appendRun := func(fileOff, memOff, n int64) {
		if len(out) > 0 {
			last := &out[len(out)-1]
			if last.FileOff+last.Len == fileOff && last.MemOff+last.Len == memOff {
				last.Len += n
				return
			}
		}
		out = append(out, Chunk{FileOff: fileOff, MemOff: memOff, Len: n})
	}
	forEachOwned(d.Rows, pr, func(i int) {
		li := int64(d.Rows.Local(i))
		forEachOwnedRun(d.Cols, pc, func(j, runLen int) {
			lj := int64(d.Cols.Local(j))
			fileOff := (int64(i)*int64(d.Cols.N) + int64(j)) * rec
			memOff := (li*localCols + lj) * rec
			appendRun(fileOff, memOff, int64(runLen)*rec)
		})
	})
	return out
}

// forEachOwned calls fn for each index owned by p, ascending.
func forEachOwned(d Dim, p int, fn func(i int)) {
	switch d.Kind {
	case None:
		for i := 0; i < d.N; i++ {
			fn(i)
		}
	case Block:
		bs := d.blockSize()
		end := (p + 1) * bs
		if end > d.N {
			end = d.N
		}
		for i := p * bs; i < end; i++ {
			fn(i)
		}
	case Cyclic:
		for i := p; i < d.N; i += d.P {
			fn(i)
		}
	}
}

// runCount returns how many maximal runs of consecutive indices p owns:
// the number of forEachOwnedRun's calls.
func (d Dim) runCount(p int) int {
	if d.Kind == Cyclic && d.P > 1 {
		return d.Count(p)
	}
	return min(d.Count(p), 1)
}

// forEachOwnedRun calls fn for each maximal run of consecutive indices
// owned by p, ascending.
func forEachOwnedRun(d Dim, p int, fn func(start, n int)) {
	switch d.Kind {
	case None:
		fn(0, d.N)
	case Block:
		bs := d.blockSize()
		start := p * bs
		end := start + bs
		if end > d.N {
			end = d.N
		}
		if end > start {
			fn(start, end-start)
		}
	case Cyclic:
		if d.P == 1 {
			fn(0, d.N)
			return
		}
		for i := p; i < d.N; i += d.P {
			fn(i, 1)
		}
	}
}

package hpf

import (
	"testing"
	"testing/quick"
)

// randomDecomp builds an arbitrary valid decomposition from fuzz input.
func randomDecomp(rows, cols, rk, ck, recSel, gridSel uint8) *Decomp {
	kinds := []DistKind{None, Block, Cyclic}
	rkind, ckind := kinds[rk%3], kinds[ck%3]
	nr := int(rows)%12 + 1
	nc := int(cols)%12 + 1
	rec := []int{1, 3, 8}[recSel%3]
	prs := []int{1, 2, 4}[gridSel%3]
	pr, pc := prs, 1
	if rkind == None {
		pr = 1
	}
	if ckind != None {
		pc = 2
	}
	d, err := New2D(
		Dim{N: nr, P: pr, Kind: rkind},
		Dim{N: nc, P: pc, Kind: ckind},
		rec, pr*pc)
	if err != nil {
		panic(err)
	}
	return d
}

// Property: the chunk lists of all CPs partition the file exactly — every
// byte appears in exactly one chunk — and each CP's memory offsets are
// dense and non-overlapping.
func TestQuickChunksPartitionFile(t *testing.T) {
	f := func(rows, cols, rk, ck, recSel, gridSel uint8) bool {
		d := randomDecomp(rows, cols, rk, ck, recSel, gridSel)
		file := make([]int, d.FileBytes())
		for cp := 0; cp < d.NCP; cp++ {
			mem := make([]int, d.CPBytes(cp))
			for _, c := range d.Chunks(cp) {
				for i := int64(0); i < c.Len; i++ {
					file[c.FileOff+i]++
					mem[c.MemOff+i]++
				}
			}
			for _, v := range mem {
				if v != 1 {
					return false // memory hole or overlap
				}
			}
		}
		for _, v := range file {
			if v != 1 {
				return false // file byte missed or duplicated
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: chunks are maximal — no two consecutive chunks of a CP could
// have been merged.
func TestQuickChunksMaximal(t *testing.T) {
	f := func(rows, cols, rk, ck, recSel, gridSel uint8) bool {
		d := randomDecomp(rows, cols, rk, ck, recSel, gridSel)
		for cp := 0; cp < d.NCP; cp++ {
			chunks := d.Chunks(cp)
			for i := 1; i < len(chunks); i++ {
				if chunks[i-1].FileOff+chunks[i-1].Len == chunks[i].FileOff &&
					chunks[i-1].MemOff+chunks[i-1].Len == chunks[i].MemOff {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestChunksAscendingFileOrder(t *testing.T) {
	d, _ := New2D(Dim{N: 8, P: 2, Kind: Cyclic}, Dim{N: 8, P: 2, Kind: Cyclic}, 4, 4)
	for cp := 0; cp < 4; cp++ {
		chunks := d.Chunks(cp)
		for i := 1; i < len(chunks); i++ {
			if chunks[i].FileOff <= chunks[i-1].FileOff {
				t.Fatalf("cp%d chunks out of order", cp)
			}
		}
	}
}

func TestChunksIdleCPIsEmpty(t *testing.T) {
	// NONE over 4 CPs: CPs 1-3 own nothing.
	d, err := New1D(16, None, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for cp := 1; cp < 4; cp++ {
		if len(d.Chunks(cp)) != 0 {
			t.Fatalf("idle cp%d has chunks", cp)
		}
		if d.CPBytes(cp) != 0 {
			t.Fatalf("idle cp%d owns %d bytes", cp, d.CPBytes(cp))
		}
	}
	if n := activeCPs(d); n != 1 {
		t.Fatalf("active CPs %d", n)
	}
}

// activeCPs counts the CPs that own at least one byte.
func activeCPs(d *Decomp) int {
	n := 0
	for cp := 0; cp < d.NCP; cp++ {
		if d.CPBytes(cp) > 0 {
			n++
		}
	}
	return n
}

// chunkCount returns d's total chunk count across all CPs (the number
// of file-system calls a traditional client collectively makes) and the
// largest chunk any CP owns (the paper's "cs", in bytes).
func chunkCount(d *Decomp) (n int, largest int64) {
	for cp := 0; cp < d.NCP; cp++ {
		for _, c := range d.Chunks(cp) {
			n++
			largest = max(largest, c.Len)
		}
	}
	return n, largest
}

func TestNumChunksAndChunkBytes(t *testing.T) {
	// 16 records cyclic over 4 CPs, 8-byte records: 16 chunks of 8 bytes.
	d, _ := New1D(16, Cyclic, 8, 4)
	if n, cs := chunkCount(d); n != 16 || cs != 8 {
		t.Fatalf("cyclic: %d chunks, cs %d", n, cs)
	}
	// Block: 4 chunks of 32 bytes.
	d2, _ := New1D(16, Block, 8, 4)
	if n, cs := chunkCount(d2); n != 4 || cs != 32 {
		t.Fatalf("block: %d chunks, cs %d", n, cs)
	}
}

func TestMemOffsetMatchesChunks(t *testing.T) {
	d, _ := New2D(Dim{N: 6, P: 2, Kind: Block}, Dim{N: 6, P: 2, Kind: Cyclic}, 2, 4)
	for cp := 0; cp < 4; cp++ {
		for _, c := range d.Chunks(cp) {
			rec := int(c.FileOff) / d.RecordSize
			if d.Owner(rec) != cp {
				t.Fatalf("chunk at %d not owned by cp%d", c.FileOff, cp)
			}
			if d.MemOffset(rec) != c.MemOff {
				t.Fatalf("MemOffset(%d) = %d, chunk says %d", rec, d.MemOffset(rec), c.MemOff)
			}
		}
	}
}

func TestOwnerPanicsForAll(t *testing.T) {
	d, _ := NewAll(8, 1, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	d.Owner(0)
}

// appendChunks is Chunks as it was before its list was sized up front:
// it grows the list run by run, merging adjacent runs.
func appendChunks(d *Decomp, cp int) []Chunk {
	rec := int64(d.RecordSize)
	if d.All {
		return []Chunk{{FileOff: 0, MemOff: 0, Len: d.FileBytes()}}
	}
	if cp >= d.Rows.P*d.Cols.P || d.CPBytes(cp) == 0 {
		return nil
	}
	pr, pc := d.gridOf(cp)
	localCols := int64(d.Cols.Count(pc))
	var out []Chunk
	forEachOwned(d.Rows, pr, func(i int) {
		li := int64(d.Rows.Local(i))
		forEachOwnedRun(d.Cols, pc, func(j, runLen int) {
			lj := int64(d.Cols.Local(j))
			c := Chunk{
				FileOff: (int64(i)*int64(d.Cols.N) + int64(j)) * rec,
				MemOff:  (li*localCols + lj) * rec,
				Len:     int64(runLen) * rec,
			}
			if k := len(out) - 1; k >= 0 && out[k].FileOff+out[k].Len == c.FileOff && out[k].MemOff+out[k].Len == c.MemOff {
				out[k].Len += c.Len
				return
			}
			out = append(out, c)
		})
	})
	return out
}

// TestChunksSizedOnce: for every Figure-2 pattern, at both of the
// paper's record sizes and a few CP counts, Chunks returns the same list
// as growing it run by run would, in a list whose capacity is exactly
// its length: it was sized once and never regrown.
func TestChunksSizedOnce(t *testing.T) {
	for _, name := range AllPatterns() {
		pat, err := ParsePattern(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range []int{8, 8192} {
			for _, ncp := range []int{1, 4, 16} {
				d, err := pat.Decomp(1<<20, rec, ncp)
				if err != nil {
					t.Fatal(err)
				}
				for cp := 0; cp < ncp; cp++ {
					got, want := d.Chunks(cp), appendChunks(d, cp)
					if len(got) != len(want) || cap(got) != len(got) {
						t.Fatalf("%s rec %d ncp %d cp%d: %d chunks (cap %d), want %d", name, rec, ncp, cp, len(got), cap(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s rec %d ncp %d cp%d chunk %d: %+v, want %+v", name, rec, ncp, cp, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestQuickChunksMatchGrownList: on arbitrary decompositions, including
// ones whose cyclic column runs merge across rows, the sized list holds
// the same chunks as the grown one and was never regrown.
func TestQuickChunksMatchGrownList(t *testing.T) {
	f := func(rows, cols, rk, ck, recSel, gridSel uint8) bool {
		d := randomDecomp(rows, cols, rk, ck, recSel, gridSel)
		for cp := 0; cp < d.NCP; cp++ {
			got, want := d.Chunks(cp), appendChunks(d, cp)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

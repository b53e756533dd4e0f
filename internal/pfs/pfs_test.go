package pfs

import (
	"bytes"
	"testing"

	"ddio/internal/disk"
	"ddio/internal/sim"
)

func newDisks(t *testing.T, n int) []*disk.Disk {
	t.Helper()
	return disksOf(t, n, disk.HP97560())
}

func TestStripingRoundRobin(t *testing.T) {
	disks := newDisks(t, 4)
	f, err := NewFile(disks, 8192, 16, Contiguous, sim.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 16; b++ {
		if f.DiskOf(b) != b%4 {
			t.Fatalf("block %d on disk %d", b, f.DiskOf(b))
		}
	}
	if f.Size() != 16*8192 {
		t.Fatalf("size %d", f.Size())
	}
	if f.sectorsPerBlock != 16 {
		t.Fatalf("sectors per block %d", f.sectorsPerBlock)
	}
}

func TestContiguousLayoutIsSequentialPerDisk(t *testing.T) {
	disks := newDisks(t, 4)
	f, _ := NewFile(disks, 8192, 64, Contiguous, sim.NewRand(1))
	for d := 0; d < 4; d++ {
		blocks := f.LocalBlocks(d)
		for i, b := range blocks {
			if f.LBN(b) != int64(i)*16 {
				t.Fatalf("disk %d block %d at LBN %d, want %d", d, b, f.LBN(b), i*16)
			}
		}
	}
}

func TestRandomLayoutIsPermutationOfSlots(t *testing.T) {
	disks := newDisks(t, 2)
	f, _ := NewFile(disks, 8192, 64, RandomBlocks, sim.NewRand(3))
	for d := 0; d < 2; d++ {
		seen := map[int64]bool{}
		sequential := true
		for i, b := range f.LocalBlocks(d) {
			lbn := f.LBN(b)
			if lbn%16 != 0 {
				t.Fatalf("unaligned LBN %d", lbn)
			}
			if seen[lbn] {
				t.Fatalf("disk %d: slot %d used twice", d, lbn)
			}
			seen[lbn] = true
			if lbn != int64(i)*16 {
				sequential = false
			}
		}
		if sequential {
			t.Fatalf("random layout of disk %d came out sequential", d)
		}
	}
}

func TestRandomLayoutVariesWithSeed(t *testing.T) {
	a, _ := NewFile(newDisks(t, 1), 8192, 32, RandomBlocks, sim.NewRand(1))
	b, _ := NewFile(newDisks(t, 1), 8192, 32, RandomBlocks, sim.NewRand(2))
	same := true
	for i := 0; i < 32; i++ {
		if a.LBN(i) != b.LBN(i) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical layouts")
	}
}

func TestLocalBlocksUnevenDivision(t *testing.T) {
	disks := newDisks(t, 3)
	f, _ := NewFile(disks, 8192, 10, Contiguous, sim.NewRand(1))
	total := 0
	for d := 0; d < 3; d++ {
		n := len(f.LocalBlocks(d))
		total += n
	}
	if total != 10 {
		t.Fatalf("local blocks sum %d, want 10", total)
	}
	if len(f.LocalBlocks(0)) != 4 || len(f.LocalBlocks(2)) != 3 {
		t.Fatalf("distribution %d/%d/%d", len(f.LocalBlocks(0)), len(f.LocalBlocks(1)), len(f.LocalBlocks(2)))
	}
}

// readBack checks file range [off, off+n) as the disks hold it against
// the image, whether written or preloaded: it reads the covered sectors
// one block at a time into buf, which must hold one block, and returns
// the file offset of the first bad byte, or -1.
func readBack(f *File, off, n int64, buf []byte) int64 {
	bs := int64(f.BlockSize)
	ss := bs / f.sectorsPerBlock
	for end := off + n; off < end; {
		b := off / bs
		lo, hi := off-b*bs, min(end-b*bs, bs)
		s0, s1 := lo/ss, (hi+ss-1)/ss
		f.Disks[f.DiskOf(int(b))].ReadData(f.LBN(int(b))+s0, buf[s0*ss:s1*ss])
		if i := VerifyImage(buf[lo:hi], off); i >= 0 {
			return off + int64(i)
		}
		off = (b + 1) * bs
	}
	return -1
}

// storedPages returns the number of block slots for which f's disks
// store a page (a page is one 8 KiB block in these tests).
func storedPages(f *File) int {
	n := 0
	for _, d := range f.Disks {
		for lbn := int64(0); lbn < d.Spec.TotalSectors(); lbn += f.sectorsPerBlock {
			if d.Stored(lbn, f.sectorsPerBlock) {
				n++
			}
		}
	}
	return n
}

// TestPreloadReadBackRoundTrip: a preloaded file reads back as the
// image, whole and in unaligned sub-block ranges, without storing a
// page; VerifyRange, which checks written ranges, reports the first
// byte of each, since nothing wrote them.
func TestPreloadReadBackRoundTrip(t *testing.T) {
	disks := newDisks(t, 4)
	f, _ := NewFile(disks, 8192, 20, RandomBlocks, sim.NewRand(5))
	f.Preload()
	buf := make([]byte, f.BlockSize)
	if off := readBack(f, 0, f.Size(), buf); off >= 0 {
		t.Fatalf("image mismatch at offset %d", off)
	}
	// Unaligned sub-block ranges read back only their covered sectors.
	for _, r := range [][2]int64{{1, 7}, {8190, 5}, {3*8192 + 513, 2 * 8192}, {f.Size() - 1, 1}} {
		if off := readBack(f, r[0], r[1], buf); off >= 0 {
			t.Fatalf("range %v: image mismatch at offset %d", r, off)
		}
		if off := f.VerifyRange(r[0], r[1], buf); off != r[0] {
			t.Fatalf("range %v never written: VerifyRange = %d, want %d", r, off, r[0])
		}
	}
	if n := storedPages(f); n != 0 {
		t.Fatalf("preload stored %d pages", n)
	}
}

// TestVerifyRangeFlagsBadBlocks: a block never written reads as zero,
// and a block whose image landed at another block's LBN holds the wrong
// offsets' bytes; both are caught at their exact first bad byte.
func TestVerifyRangeFlagsBadBlocks(t *testing.T) {
	const bs = 8192
	disks := newDisks(t, 2)
	f, _ := NewFile(disks, bs, 12, RandomBlocks, sim.NewRand(7))
	buf := make([]byte, bs)

	// Block 5 is never written.
	img := make([]byte, bs)
	for b := 0; b < f.NumBlocks; b++ {
		if b != 5 {
			FillImage(img, int64(b)*bs)
			f.Disks[f.DiskOf(b)].WriteData(f.LBN(b), img)
		}
	}
	want := 5*bs + int64(VerifyImage(make([]byte, bs), 5*bs))
	if got := f.VerifyRange(0, f.Size(), buf); got != want {
		t.Fatalf("unwritten block: first bad byte %d, want %d", got, want)
	}
	if got := f.VerifyRange(6*bs, 6*bs, buf); got != -1 {
		t.Fatalf("range past the unwritten block flagged at %d", got)
	}

	// Block 5 gets block 3's image (same disk, wrong LBN for it).
	f.Preload()
	FillImage(img, 3*bs)
	f.Disks[f.DiskOf(5)].WriteData(f.LBN(5), img)
	want = 5*bs + int64(VerifyImage(img, 5*bs))
	if got := f.VerifyRange(bs, 10*bs, buf); got != want {
		t.Fatalf("misplaced block: first bad byte %d, want %d", got, want)
	}
	if want >= 6*bs {
		t.Fatalf("misplaced block's image matched its own: %d", want)
	}
}

func TestNewFileErrors(t *testing.T) {
	if _, err := NewFile(nil, 8192, 4, Contiguous, sim.NewRand(1)); err == nil {
		t.Error("no disks accepted")
	}
	disks := newDisks(t, 1)
	if _, err := NewFile(disks, 1000, 4, Contiguous, sim.NewRand(1)); err == nil {
		t.Error("non-sector-aligned block accepted")
	}
	// Too many blocks for one disk.
	if _, err := NewFile(disks, 8192, 1<<20, Contiguous, sim.NewRand(1)); err == nil {
		t.Error("oversized file accepted")
	}
}

func TestParseLayout(t *testing.T) {
	for _, c := range []struct {
		in   string
		want LayoutKind
	}{{"contiguous", Contiguous}, {"contig", Contiguous}, {"random", RandomBlocks}, {"random-blocks", RandomBlocks}} {
		got, err := ParseLayout(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseLayout(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseLayout("bogus"); err == nil {
		t.Error("bogus layout accepted")
	}
	if Contiguous.String() != "contiguous" || RandomBlocks.String() != "random-blocks" {
		t.Error("layout names")
	}
}

func TestImageDeterministicAndOffsetSensitive(t *testing.T) {
	a, b, c := make([]byte, 64), make([]byte, 64), make([]byte, 64)
	FillImage(a, 0)
	FillImage(b, 0)
	if !bytes.Equal(a, b) {
		t.Fatal("image not deterministic")
	}
	FillImage(c, 1)
	if bytes.Equal(a, c) {
		t.Fatal("image insensitive to offset")
	}
	if VerifyImage(a, 0) != -1 {
		t.Fatal("self-verify failed")
	}
	a[10] ^= 0xFF
	if VerifyImage(a, 0) != 10 {
		t.Fatal("corruption not located")
	}
}

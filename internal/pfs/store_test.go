package pfs

import (
	"bytes"
	"fmt"
	"testing"

	"ddio/internal/disk"
	"ddio/internal/sim"
)

// TestLostWriteFailsVerification: with the image preloaded, every block
// but one is written through the disks. The skipped block still reads
// back as the image, yet VerifyRange reports its first byte: a preload
// does not stand in for a write that never reached the disk.
func TestLostWriteFailsVerification(t *testing.T) {
	e := sim.NewEngine()
	t.Cleanup(e.Close)
	disks := make([]*disk.Disk, 4)
	for i := range disks {
		disks[i] = disk.New(e, fmt.Sprintf("d%d", i), disk.HP97560(), nil)
	}
	const bs, lost = 8192, 6
	f, err := NewFile(disks, bs, 24, RandomBlocks, sim.NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	f.Preload()
	e.Go("writer", func(p *sim.Proc) {
		img := make([]byte, bs)
		for b := range f.NumBlocks {
			if b != lost {
				FillImage(img, int64(b)*bs)
				f.Disks[f.DiskOf(b)].WriteSync(p, f.LBN(b), img)
			}
		}
		for _, d := range f.Disks {
			d.Flush(p)
		}
	})
	e.Run()
	buf := make([]byte, bs)
	if off := readBack(f, lost*bs, bs, buf); off >= 0 {
		t.Fatalf("skipped block does not read back as the preloaded image: bad byte at %d", off)
	}
	if off := f.VerifyRange(0, f.Size(), buf); off != lost*bs {
		t.Fatalf("VerifyRange = %d, want the skipped block's offset %d", off, lost*bs)
	}
	if off := f.VerifyRange((lost+1)*bs, f.Size()-(lost+1)*bs, buf); off != -1 {
		t.Fatalf("written blocks after the lost one flagged at %d", off)
	}
	if n := storedPages(f); n != 0 {
		t.Fatalf("writes of the image stored %d pages", n)
	}
}

// TestDifferingWriteStoresOnePage: a block write whose bytes differ from
// the image stores exactly one page, which reads back those bytes and
// fails verification at the first differing byte. Writing the image
// back over it keeps the page and verifies clean.
func TestDifferingWriteStoresOnePage(t *testing.T) {
	const bs = 8192
	f, _ := NewFile(newDisks(t, 4), bs, 16, RandomBlocks, sim.NewRand(2))
	data := make([]byte, bs)
	FillImage(data, 5*bs)
	data[100] ^= 0xFF
	d := f.Disks[f.DiskOf(5)]
	d.WriteData(f.LBN(5), data)
	if n := storedPages(f); n != 1 {
		t.Fatalf("a differing block write stored %d pages, want 1", n)
	}
	got := make([]byte, bs)
	d.ReadData(f.LBN(5), got)
	if !bytes.Equal(got, data) {
		t.Fatal("stored block does not read back the written bytes")
	}
	if off := f.VerifyRange(5*bs, bs, got); off != 5*bs+100 {
		t.Fatalf("VerifyRange = %d, want %d", off, 5*bs+100)
	}
	data[100] ^= 0xFF
	d.WriteData(f.LBN(5), data)
	if off := f.VerifyRange(5*bs, bs, got); off != -1 || storedPages(f) != 1 {
		t.Fatalf("rewritten image: VerifyRange = %d with %d pages, want -1 with 1", off, storedPages(f))
	}
}

// TestFirstStoreFillsPageFromContents: on a file not preloaded, a page
// stored for a later write starts from what its sectors held: the image
// where an earlier write of the image went, zeros elsewhere.
func TestFirstStoreFillsPageFromContents(t *testing.T) {
	const bs, ss = 8192, 512
	f, _ := NewFile(newDisks(t, 2), bs, 8, Contiguous, sim.NewRand(1))
	d, lbn := f.Disks[f.DiskOf(3)], f.LBN(3)
	img := make([]byte, 8*ss)
	FillImage(img, 3*bs)
	d.WriteData(lbn, img) // sectors 0..7 of block 3: the image, stamped only
	if n := storedPages(f); n != 0 {
		t.Fatalf("a write of the image stored %d pages", n)
	}
	want := make([]byte, bs)
	FillImage(want[:8*ss], 3*bs)
	got := make([]byte, bs)
	d.ReadData(lbn, got)
	if !bytes.Equal(got, want) {
		t.Fatal("half-written block should read the image, then zeros")
	}
	odd := bytes.Repeat([]byte{0xA5}, ss)
	d.WriteData(lbn+12, odd) // sector 12 differs from the image: one page
	copy(want[12*ss:], odd)
	d.ReadData(lbn, got)
	if storedPages(f) != 1 || !bytes.Equal(got, want) {
		t.Fatalf("stored page (%d pages) lost the block's earlier contents", storedPages(f))
	}
	if off := f.VerifyRange(3*bs, bs, got); off != 3*bs+8*ss {
		t.Fatalf("VerifyRange = %d, want the first unwritten sector %d", off, 3*bs+8*ss)
	}
}

// TestWriteOutsideFileIsStored: sectors no file block occupies hold
// what was written there, and nothing else.
func TestWriteOutsideFileIsStored(t *testing.T) {
	f, _ := NewFile(newDisks(t, 2), 8192, 8, Contiguous, sim.NewRand(1))
	d := f.Disks[0]
	far := f.LBN(f.NumBlocks-2) + 64 // past disk 0's last block
	data := bytes.Repeat([]byte{0x3C}, 512)
	d.WriteData(far, data)
	got := make([]byte, 2*512)
	d.ReadData(far, got)
	if !bytes.Equal(got[:512], data) || !bytes.Equal(got[512:], make([]byte, 512)) {
		t.Fatal("sectors outside the file do not hold what was written")
	}
	if f.stamps != nil {
		t.Fatal("a write outside the file stamped file sectors")
	}
}

// TestBlockAtInvertsPlacement: for both layouts, each block's slot maps
// back to the block, and slots no block occupies map to none.
func TestBlockAtInvertsPlacement(t *testing.T) {
	for _, layout := range []LayoutKind{Contiguous, RandomBlocks} {
		f, _ := NewFile(newDisks(t, 3), 8192, 50, layout, sim.NewRand(4))
		used := map[[2]int64]bool{}
		for b := range f.NumBlocks {
			slot := f.LBN(b) / f.sectorsPerBlock
			used[[2]int64{int64(f.DiskOf(b)), slot}] = true
			if got := f.blockAt(f.DiskOf(b), slot); got != b {
				t.Fatalf("%v: blockAt(disk %d, slot %d) = %d, want %d", layout, f.DiskOf(b), slot, got, b)
			}
		}
		for unit := range f.Disks {
			for slot := range int64(200) {
				if !used[[2]int64{int64(unit), slot}] && f.blockAt(unit, slot) != -1 {
					t.Fatalf("%v: empty slot %d of disk %d maps to block %d", layout, slot, unit, f.blockAt(unit, slot))
				}
			}
		}
	}
}

// TestStampsTakenOnFirstWrite: NewFile takes no stamp bitmap, and a
// contiguous file allocates nothing beyond the File; the first write
// takes the bitmap.
func TestStampsTakenOnFirstWrite(t *testing.T) {
	disks, rng := newDisks(t, 4), sim.NewRand(1)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := NewFile(disks, 8192, 128, Contiguous, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("contiguous NewFile: %v allocations, want at most 1 (the File)", allocs)
	}
	f, _ := NewFile(disks, 8192, 128, Contiguous, sim.NewRand(1))
	if f.stamps != nil {
		t.Fatal("NewFile took the stamp bitmap")
	}
	img := make([]byte, 512)
	FillImage(img, 0)
	f.Disks[0].WriteData(0, img)
	if !f.stamped(0) || f.stamped(1) {
		t.Fatal("the first write did not stamp exactly its sector")
	}
}

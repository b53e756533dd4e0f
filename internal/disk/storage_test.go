package disk

import (
	"bytes"
	"testing"

	"ddio/internal/sim"
)

// fill returns n bytes of v.
func fill(n int, v byte) []byte { return bytes.Repeat([]byte{v}, n) }

// TestReadFillsDstZeroForUnwritten: a read fills exactly the caller's
// destination, and sectors never written read as zeros even when the
// destination held stale bytes.
func TestReadFillsDstZeroForUnwritten(t *testing.T) {
	e, d := newTestDisk(t, HP97560())
	const n = 16 * 512
	backing := fill(n+512, 0xFF) // stale bytes, plus a guard sector after dst
	dst := backing[:n]
	e.Go("t", func(p *sim.Proc) {
		d.WriteSync(p, 0, fill(4*512, 0x5A)) // first 4 sectors of the page only
		d.Flush(p)
		d.ReadSync(p, 0, dst)
	})
	e.Run()
	if !bytes.Equal(dst[:4*512], fill(4*512, 0x5A)) {
		t.Fatal("written sectors read back wrong")
	}
	if !bytes.Equal(dst[4*512:], make([]byte, n-4*512)) {
		t.Fatal("unwritten sectors of a stored page leaked stale bytes")
	}
	if !bytes.Equal(backing[n:], fill(512, 0xFF)) {
		t.Fatal("read wrote past the end of dst")
	}
	far := fill(n, 0xFF)
	d.ReadData(5000, far) // a page nothing ever touched
	if !bytes.Equal(far, make([]byte, n)) {
		t.Fatal("unwritten page leaked stale bytes")
	}
}

// TestUnalignedSpanRoundTrip: writes and reads that start mid-page and
// cross a page boundary round-trip, and leave the neighbouring sectors
// alone.
func TestUnalignedSpanRoundTrip(t *testing.T) {
	e, d := newTestDisk(t, HP97560())
	data := make([]byte, 7*512) // sectors 13..19: across the 16-sector page boundary
	for i := range data {
		data[i] = byte(i*13 + 1)
	}
	got := make([]byte, len(data))
	e.Go("t", func(p *sim.Proc) {
		d.WriteSync(p, 13, data)
		d.Flush(p)
		d.ReadSync(p, 13, got)
	})
	e.Run()
	if !bytes.Equal(got, data) {
		t.Fatal("unaligned cross-page span did not round-trip")
	}
	wide := fill(13*512, 0xFF) // sectors 10..22
	d.ReadData(10, wide)
	want := append(append(make([]byte, 3*512), data...), make([]byte, 3*512)...)
	if !bytes.Equal(wide, want) {
		t.Fatal("neighbouring sectors of an unaligned write changed")
	}
}

// TestRewriteReplacesStoredBytes: rewriting some sectors of an earlier
// write replaces exactly those bytes; the rest keep the earlier write.
func TestRewriteReplacesStoredBytes(t *testing.T) {
	e, d := newTestDisk(t, HP97560())
	got := make([]byte, 16*512)
	e.Go("t", func(p *sim.Proc) {
		d.WriteSync(p, 0, fill(16*512, 0x11))
		d.Flush(p)
		d.WriteSync(p, 6, fill(4*512, 0x22)) // overwrite sectors 6..9
		d.Flush(p)
		d.ReadSync(p, 0, got)
	})
	e.Run()
	for i, v := range got {
		want := byte(0x11)
		if i >= 6*512 && i < 10*512 {
			want = 0x22
		}
		if v != want {
			t.Fatalf("byte %d = %#x, want %#x", i, v, want)
		}
	}
}

// TestWarmRewriteAllocatesNothing: once a block's pages exist, rewriting
// and reading it back moves bytes in place without allocating.
func TestWarmRewriteAllocatesNothing(t *testing.T) {
	_, d := newTestDisk(t, HP97560())
	data := fill(16*512, 0x33)
	dst := make([]byte, len(data))
	d.WriteData(8, data) // warm: the two pages the unaligned block spans
	allocs := testing.AllocsPerRun(100, func() {
		d.WriteData(8, data)
		d.ReadData(8, dst)
	})
	if allocs != 0 {
		t.Fatalf("warm rewrite allocated %.1f times per run", allocs)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("warm rewrite read back wrong")
	}
}

// TestReleaseDataHandsPagesOnZeroed: ReleaseData forgets the disk's
// bytes and hands its pages to the slab list; a page another disk then
// takes is the released one, with its sectors cleared, so a partial
// write there reads zeros, not the first disk's bytes, around it.
func TestReleaseDataHandsPagesOnZeroed(t *testing.T) {
	e, d := newTestDisk(t, HP97560())
	const n = 16 * 512
	d.WriteData(0, fill(n, 0x77))
	old := &d.pages[0][0]
	d.ReleaseData()
	if len(d.pages) != 0 {
		t.Fatalf("%d pages kept after ReleaseData", len(d.pages))
	}
	got := fill(n, 0xFF)
	d.ReadData(0, got)
	if !bytes.Equal(got, make([]byte, n)) {
		t.Fatal("released disk still reads its old bytes")
	}

	d2 := New(e, "t1", HP97560(), nil)
	d2.WriteData(4, fill(4*512, 0x5A))
	if &d2.pages[0][0] != old {
		t.Fatal("the released page was not reused")
	}
	d2.ReadData(0, got)
	want := append(append(make([]byte, 4*512), fill(4*512, 0x5A)...), make([]byte, 8*512)...)
	if !bytes.Equal(got, want) {
		t.Fatal("a reused page leaked the previous disk's bytes")
	}
}

// fakeBacking reads every unstored sector as v and calls every write
// the image.
type fakeBacking struct{ v byte }

func (b fakeBacking) Fill(_ int, _ int64, dst []byte) {
	for i := range dst {
		dst[i] = b.v
	}
}
func (fakeBacking) Stamp(int, int64, []byte) bool { return true }

// TestReleaseDataDropsBacking: a backed disk stores nothing for writes
// its backing accepts and reads the backing elsewhere; ReleaseData
// drops the backing, so the disk reads zeros again.
func TestReleaseDataDropsBacking(t *testing.T) {
	_, d := newTestDisk(t, HP97560())
	d.SetBacking(fakeBacking{0xEE}, 0)
	d.WriteData(0, fill(16*512, 0x11))
	got := fill(2*512, 0)
	d.ReadData(7, got)
	if len(d.pages) != 0 || !bytes.Equal(got, fill(2*512, 0xEE)) {
		t.Fatalf("backed disk stored %d pages or ignored its backing", len(d.pages))
	}
	d.ReleaseData()
	if d.backing != nil {
		t.Fatal("ReleaseData kept the backing")
	}
	d.ReadData(7, got)
	if !bytes.Equal(got, make([]byte, 2*512)) {
		t.Fatal("released disk still reads its backing")
	}
}

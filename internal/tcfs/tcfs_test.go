package tcfs

import (
	"bytes"
	"testing"
	"time"

	"ddio/internal/pfs"
	"ddio/internal/sim"
)

func TestReadCorrectnessAcrossPatterns(t *testing.T) {
	for _, layout := range []pfs.LayoutKind{pfs.Contiguous, pfs.RandomBlocks} {
		for _, pattern := range []string{"ra", "rn", "rb", "rc", "rnb", "rbb", "rcb", "rbc", "rcc", "rcn"} {
			r := newRig(t, rigOpts{ncp: 4, niop: 2, ndisks: 4, blocks: 32, layout: layout})
			dec := mustDecomp(t, pattern, r.f.Size(), 1024, 4)
			r.transfer(t, dec, false, DefaultParams())
			r.verifyRead(t, dec)
		}
	}
}

func TestWriteCorrectnessAcrossPatterns(t *testing.T) {
	for _, layout := range []pfs.LayoutKind{pfs.Contiguous, pfs.RandomBlocks} {
		for _, pattern := range []string{"wn", "wb", "wc", "wbb", "wcc", "wcn"} {
			r := newRig(t, rigOpts{ncp: 4, niop: 2, ndisks: 4, blocks: 32, layout: layout})
			dec := mustDecomp(t, pattern, r.f.Size(), 1024, 4)
			r.transfer(t, dec, true, DefaultParams())
			r.verifyWrite(t)
		}
	}
}

func TestOddRecordSizesStraddleBlocks(t *testing.T) {
	// 24-byte records do not divide the 8 KB block size, so chunks
	// straddle block boundaries and requests carry partial records.
	r := newRig(t, rigOpts{ncp: 4, niop: 2, ndisks: 4, blocks: 12, layout: pfs.Contiguous})
	dec := mustDecomp(t, "rc", r.f.Size(), 24, 4)
	r.transfer(t, dec, false, DefaultParams())
	r.verifyRead(t, dec)
}

func TestRequestCountMatchesChunkPieces(t *testing.T) {
	r := newRig(t, rigOpts{ncp: 4, niop: 2, ndisks: 4, blocks: 32, layout: pfs.Contiguous})
	dec := mustDecomp(t, "rb", r.f.Size(), 1024, 4)
	r.transfer(t, dec, false, DefaultParams())
	m := r.totalMetrics()
	// rb: each CP owns a contiguous 8-block region -> 8 block requests.
	if m.Requests != 32 {
		t.Fatalf("requests %d, want 32", m.Requests)
	}
	if m.Reads != 32 {
		t.Fatalf("read handlers %d", m.Reads)
	}
}

func TestRAPatternHitsCache(t *testing.T) {
	// All CPs read the whole file: the first requester misses, the other
	// three hit the cache.
	r := newRig(t, rigOpts{ncp: 4, niop: 2, ndisks: 4, blocks: 16, layout: pfs.Contiguous})
	dec := mustDecomp(t, "ra", r.f.Size(), 8192, 4)
	r.transfer(t, dec, false, DefaultParams())
	r.verifyRead(t, dec)
	m := r.totalMetrics()
	if m.CacheHits < int64(3*16/2) {
		t.Fatalf("cache hits %d with 4 CPs reading the same file", m.CacheHits)
	}
	// The disks must not have read every block four times.
	var diskReads int64
	for _, d := range r.disks {
		diskReads += d.Metrics().Reads
	}
	if diskReads > 2*16+8 {
		t.Fatalf("%d disk reads for a 16-block file read by 4 CPs", diskReads)
	}
}

func TestPrefetchesHappenAndAreCounted(t *testing.T) {
	r := newRig(t, rigOpts{ncp: 2, niop: 2, ndisks: 2, blocks: 16, layout: pfs.Contiguous})
	dec := mustDecomp(t, "rn", r.f.Size(), 8192, 2)
	r.transfer(t, dec, false, DefaultParams())
	if m := r.totalMetrics(); m.Prefetches == 0 {
		t.Fatal("no prefetches issued for a sequential read")
	}
}

func TestPrefetchCanBeDisabled(t *testing.T) {
	prm := DefaultParams()
	prm.PrefetchBlocks = 0
	r := newRig(t, rigOpts{ncp: 2, niop: 2, ndisks: 2, blocks: 16, layout: pfs.Contiguous, prm: &prm})
	dec := mustDecomp(t, "rn", r.f.Size(), 8192, 2)
	r.transfer(t, dec, false, prm)
	if m := r.totalMetrics(); m.Prefetches != 0 {
		t.Fatalf("%d prefetches with prefetching disabled", m.Prefetches)
	}
}

func TestWriteBehindFlushesFullBlocks(t *testing.T) {
	r := newRig(t, rigOpts{ncp: 4, niop: 2, ndisks: 4, blocks: 16, layout: pfs.Contiguous})
	dec := mustDecomp(t, "wb", r.f.Size(), 8192, 4)
	r.transfer(t, dec, true, DefaultParams())
	m := r.totalMetrics()
	if m.Flushes < 16 {
		t.Fatalf("flushes %d, want >= one per block", m.Flushes)
	}
	if m.PartialRMW != 0 {
		t.Fatalf("%d read-modify-writes for fully covered blocks", m.PartialRMW)
	}
	r.verifyWrite(t)
}

func TestCachePressureForcesPartialRMW(t *testing.T) {
	// A tiny cache with a cyclic write pattern evicts blocks before they
	// fill, forcing read-modify-write flushes — and the data must still
	// come out exactly right.
	prm := DefaultParams()
	prm.BuffersPerDiskPerCP = 1 // frames = 1*ncp*localdisks, below working set
	r := newRig(t, rigOpts{ncp: 2, niop: 1, ndisks: 1, blocks: 8, layout: pfs.Contiguous, prm: &prm})
	dec := mustDecomp(t, "wc", r.f.Size(), 1024, 2)
	r.transfer(t, dec, true, prm)
	r.verifyWrite(t)
	if m := r.totalMetrics(); m.PartialRMW == 0 {
		t.Fatal("expected partial-block RMW under cache pressure")
	}
}

func TestCacheSizeFollowsPolicy(t *testing.T) {
	r := newRig(t, rigOpts{ncp: 4, niop: 2, ndisks: 4, blocks: 8, layout: pfs.Contiguous})
	// 2 buffers per disk per CP, 2 local disks, 4 CPs = 16 frames.
	if got := len(r.servers[0].cache.bufs); got != 16 {
		t.Fatalf("cache frames %d, want 16", got)
	}
}

func TestStridedRequestsSpeedUpCyclic(t *testing.T) {
	elapsed := func(strided bool) time.Duration {
		prm := DefaultParams()
		prm.StridedRequests = strided
		r := newRig(t, rigOpts{ncp: 2, niop: 2, ndisks: 4, blocks: 64, layout: pfs.Contiguous, prm: &prm})
		dec := mustDecomp(t, "rc", r.f.Size(), 8192, 2)
		d := r.transfer(t, dec, false, prm)
		r.verifyRead(t, dec)
		return d
	}
	plain, strided := elapsed(false), elapsed(true)
	if float64(strided) > 0.9*float64(plain) {
		t.Fatalf("strided %v vs per-chunk %v: expected a clear win", strided, plain)
	}
}

func TestIdleCPsParticipateInBarriers(t *testing.T) {
	// rn leaves CPs 1..3 idle; the run must still complete.
	r := newRig(t, rigOpts{ncp: 4, niop: 2, ndisks: 4, blocks: 16, layout: pfs.Contiguous})
	dec := mustDecomp(t, "rn", r.f.Size(), 8192, 4)
	r.transfer(t, dec, false, DefaultParams())
	r.verifyRead(t, dec)
}

func TestSyncWaitsForOutstandingPrefetch(t *testing.T) {
	// After a sequential read the last prefetch is still in flight when
	// the data has been delivered; the reported end time must include
	// it (the paper charges rb for exactly this).
	r := newRig(t, rigOpts{ncp: 2, niop: 1, ndisks: 1, blocks: 8, layout: pfs.RandomBlocks})
	dec := mustDecomp(t, "rb", r.f.Size(), 8192, 2)
	r.transfer(t, dec, false, DefaultParams())
	var reads int64
	for _, d := range r.disks {
		reads += d.Metrics().Reads
	}
	if reads <= 8 {
		t.Skip("no extra prefetch read occurred in this configuration")
	}
	// Nothing to assert numerically beyond completion: the sync path ran
	// and the engine drained, which is the regression this guards.
}

// TestWriteBitmapCountsDistinctBytes: overlapping sub-block writes at odd
// offsets and lengths that cross 64-byte word edges leave dirty equal to
// the number of distinct bytes written; a read of the partial frame
// merges the disk's bytes under exactly the unwritten ones; writing the
// gaps completes the block, which flushes and verifies; and a warm write
// hit allocates nothing.
func TestWriteBitmapCountsDistinctBytes(t *testing.T) {
	r := newRig(t, rigOpts{ncp: 1, niop: 1, ndisks: 1, blocks: 4, layout: pfs.Contiguous})
	c := r.servers[0].cache
	const block = 2
	bs := r.f.BlockSize
	base := int64(block * bs)
	img := make([]byte, bs)
	pfs.FillImage(img, base)
	// The disk block reads as zeros, so a merge that overwrites a written
	// byte, or misses an unwritten one, shows in the frame.
	want := make([]byte, bs)
	written := make([]bool, bs)
	write := func(p *sim.Proc, off, n int) bool {
		b := c.getWrite(p, block)
		defer c.unpin(b)
		copy(b.data[off:off+n], img[off:off+n])
		b.markWritten(off, n)
		distinct := 0
		for i := off; i < off+n; i++ {
			want[i], written[i] = img[i], true
		}
		for _, w := range written {
			if w {
				distinct++
			}
		}
		if b.dirty != distinct {
			t.Errorf("after write [%d, %d): dirty %d, want %d distinct bytes", off, off+n, b.dirty, distinct)
			return false
		}
		return true
	}
	var allocs float64
	r.eng.Go("writer", func(p *sim.Proc) {
		for _, w := range [][2]int{
			{3, 61}, {63, 2}, {60, 70}, {127, 129}, {999, 3}, {1000, 1},
			{4095, 200}, {0, 1}, {bs - 92, 92}, {250, 10}, {64, 64}, {4000, 300},
		} {
			if !write(p, w[0], w[1]) {
				return
			}
		}
		b := c.getRead(p, block) // fills the partial frame from disk
		if !bytes.Equal(b.data, want) {
			t.Errorf("merged frame differs from the written bytes over zeros")
		}
		c.unpin(b)
		for i := 0; i < bs; {
			j := i
			for j < bs && !written[j] {
				j++
			}
			if j > i && !write(p, i, j-i) {
				return
			}
			i = j + 1
		}
		c.flushAll(p)
		allocs = testing.AllocsPerRun(50, func() {
			b := c.getWrite(p, block)
			b.markWritten(5, 100)
			c.unpin(b)
		})
	})
	r.eng.Run()
	if t.Failed() {
		return
	}
	if got := r.f.VerifyRange(base, int64(bs), make([]byte, bs)); got != -1 {
		t.Fatalf("flushed block mismatch at offset %d", got)
	}
	if m := r.totalMetrics(); m.Flushes == 0 || m.PartialRMW != 0 {
		t.Fatalf("%d flushes, %d read-modify-writes: want the completed block flushed whole", m.Flushes, m.PartialRMW)
	}
	if allocs != 0 {
		t.Fatalf("warm write hit: %v allocs", allocs)
	}
}

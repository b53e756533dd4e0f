package disk

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"ddio/internal/sim"
)

// newTestDisk returns an engine and a disk with no bus (infinite channel)
// unless withBus is set, in which case a 10 MB/s bus is attached.
func newTestDisk(t *testing.T, spec *Spec) (*sim.Engine, *Disk) {
	t.Helper()
	e := sim.NewEngine()
	t.Cleanup(e.Close)
	d := New(e, "t0", spec, nil)
	return e, d
}

// readSectors reads count sectors from lbn into a fresh buffer.
func readSectors(p *sim.Proc, d *Disk, lbn, count int64) []byte {
	buf := make([]byte, count*int64(d.Spec.SectorSize))
	d.ReadSync(p, lbn, buf)
	return buf
}

func TestReadWriteRoundTripData(t *testing.T) {
	e, d := newTestDisk(t, HP97560())
	payload := make([]byte, 16*512)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var got []byte
	e.Go("t", func(p *sim.Proc) {
		d.WriteSync(p, 4096, payload)
		d.Flush(p)
		got = readSectors(p, d, 4096, 16)
	})
	e.Run()
	if !bytes.Equal(got, payload) {
		t.Fatal("read-back mismatch")
	}
}

func TestUnwrittenSectorsReadZero(t *testing.T) {
	e, d := newTestDisk(t, HP97560())
	var got []byte
	e.Go("t", func(p *sim.Proc) { got = readSectors(p, d, 100, 4) })
	e.Run()
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten sector not zero")
		}
	}
}

func TestSequentialReadApproachesSustainedRate(t *testing.T) {
	e, d := newTestDisk(t, HP97560())
	const blocks = 400 // ~3.2 MB
	var end sim.Time
	e.Go("t", func(p *sim.Proc) {
		for b := int64(0); b < blocks; b++ {
			readSectors(p, d, b*16, 16)
		}
		end = p.Now()
	})
	e.Run()
	rate := float64(blocks*16*512) / end.Seconds()
	sustained := d.Spec.SustainedRate()
	if rate < 0.85*sustained {
		t.Fatalf("sequential read %.0f B/s, sustained model %.0f B/s", rate, sustained)
	}
	if rate > d.Spec.MediaRate() {
		t.Fatalf("sequential read %.0f B/s beats media rate %.0f", rate, d.Spec.MediaRate())
	}
	m := d.Metrics()
	if m.CacheHits+m.CacheStreams < blocks/2 {
		t.Fatalf("read-ahead served only %d of %d blocks", m.CacheHits+m.CacheStreams, blocks)
	}
}

func TestSequentialWriteApproachesSustainedRate(t *testing.T) {
	e, d := newTestDisk(t, HP97560())
	const blocks = 400
	data := make([]byte, 16*512)
	var end sim.Time
	e.Go("t", func(p *sim.Proc) {
		for b := int64(0); b < blocks; b++ {
			d.WriteSync(p, b*16, data)
		}
		d.Flush(p)
		end = p.Now()
	})
	e.Run()
	rate := float64(blocks*16*512) / end.Seconds()
	if rate < 0.85*d.Spec.SustainedRate() {
		t.Fatalf("sequential write %.0f B/s vs sustained %.0f", rate, d.Spec.SustainedRate())
	}
}

func TestRandomReadsCostSeekPlusRotation(t *testing.T) {
	e, d := newTestDisk(t, HP97560())
	rng := sim.NewRand(3)
	const n = 60
	var end sim.Time
	e.Go("t", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			slot := rng.Int63n(d.Spec.TotalSectors()/16 - 1)
			readSectors(p, d, slot*16, 16)
		}
		end = p.Now()
	})
	e.Run()
	per := time.Duration(end) / n
	// Expect roughly overhead + seek + half-rev + transfer: 15–30 ms.
	if per < 12*time.Millisecond || per > 35*time.Millisecond {
		t.Fatalf("random 8K read service time %v, want 15-30ms", per)
	}
	if d.Metrics().SeekCount < n/2 {
		t.Fatalf("only %d seeks for %d random reads", d.Metrics().SeekCount, n)
	}
}

func TestSortedReadsBeatUnsorted(t *testing.T) {
	run := func(sortIt bool) time.Duration {
		e := sim.NewEngine()
		defer e.Close()
		d := New(e, "t", HP97560(), nil)
		rng := sim.NewRand(9)
		slots := make([]int64, 80)
		for i := range slots {
			slots[i] = rng.Int63n(d.Spec.TotalSectors()/16-1) * 16
		}
		if sortIt {
			for i := 0; i < len(slots); i++ { // insertion sort, small n
				for j := i; j > 0 && slots[j] < slots[j-1]; j-- {
					slots[j], slots[j-1] = slots[j-1], slots[j]
				}
			}
		}
		var end sim.Time
		e.Go("t", func(p *sim.Proc) {
			for _, s := range slots {
				readSectors(p, d, s, 16)
			}
			end = p.Now()
		})
		e.Run()
		return end.Duration()
	}
	sorted, unsorted := run(true), run(false)
	if float64(unsorted) < 1.2*float64(sorted) {
		t.Fatalf("sorted %v vs unsorted %v: expected >=20%% win", sorted, unsorted)
	}
}

func TestCacheHitIsMechanicallyFree(t *testing.T) {
	spec := HP97560()
	e, d := newTestDisk(t, spec)
	var first, second time.Duration
	e.Go("t", func(p *sim.Proc) {
		t0 := p.Now()
		readSectors(p, d, 0, 16)
		first = time.Duration(p.Now() - t0)
		// Wait for read-ahead to cover the next block, then re-read it.
		p.Sleep(100 * time.Millisecond)
		t1 := p.Now()
		readSectors(p, d, 16, 16)
		second = time.Duration(p.Now() - t1)
	})
	e.Run()
	if second >= first/2 {
		t.Fatalf("cached read %v vs cold %v: expected big win", second, first)
	}
	if d.Metrics().CacheHits != 1 {
		t.Fatalf("cache hits %d, want 1", d.Metrics().CacheHits)
	}
}

func TestReadAheadDisabledByZeroSegment(t *testing.T) {
	spec := HP97560()
	spec.CacheSegmentSectors = 0
	e, d := newTestDisk(t, spec)
	e.Go("t", func(p *sim.Proc) {
		readSectors(p, d, 0, 16)
		p.Sleep(50 * time.Millisecond)
		readSectors(p, d, 16, 16)
	})
	e.Run()
	m := d.Metrics()
	if m.CacheHits+m.CacheStreams != 0 {
		t.Fatalf("cache served %d reads with read-ahead disabled", m.CacheHits+m.CacheStreams)
	}
	// Write-behind is also disabled: writes are synchronous.
	e2 := sim.NewEngine()
	defer e2.Close()
	d2 := New(e2, "t2", spec, nil)
	var dur time.Duration
	e2.Go("t", func(p *sim.Proc) {
		t0 := p.Now()
		d2.WriteSync(p, 0, make([]byte, 16*512))
		dur = time.Duration(p.Now() - t0)
	})
	e2.Run()
	if dur < 3*time.Millisecond { // must include rotation+transfer
		t.Fatalf("synchronous write returned in %v", dur)
	}
}

func TestWriteInvalidatesOverlappingReadCache(t *testing.T) {
	e, d := newTestDisk(t, HP97560())
	fresh := make([]byte, 16*512)
	for i := range fresh {
		fresh[i] = 0xAB
	}
	var got []byte
	e.Go("t", func(p *sim.Proc) {
		readSectors(p, d, 0, 16) // populates cache with zeros
		d.WriteSync(p, 0, fresh) // overwrite same block
		d.Flush(p)
		got = readSectors(p, d, 0, 16)
	})
	e.Run()
	if !bytes.Equal(got, fresh) {
		t.Fatal("read served stale cache after overlapping write")
	}
}

func TestFlushDrainsQueueAndWriteBehind(t *testing.T) {
	e, d := newTestDisk(t, HP97560())
	data := make([]byte, 16*512)
	e.Go("t", func(p *sim.Proc) {
		for b := int64(0); b < 10; b++ {
			d.Submit(&Request{Write: true, LBN: b * 16, Count: 16, Data: data})
		}
		d.Flush(p)
		if len(d.queue) != 0 {
			t.Error("queue not drained after Flush")
		}
		if d.wb.pendingAt(p.Now()) != 0 {
			t.Error("write-behind not drained after Flush")
		}
	})
	e.Run()
}

// TestDiskServesArrivalOrder: the drive serves its queue first come,
// first served, even when a later request lies nearer the head.
func TestDiskServesArrivalOrder(t *testing.T) {
	e, d := newTestDisk(t, HP97560())
	var order []int
	for i, lbn := range []int64{2_000_000, 0, 1_000_000} {
		d.Submit(&Request{LBN: lbn, Count: 16, Data: make([]byte, 16*512),
			OnDone: func(sim.Time) { order = append(order, i) }})
	}
	e.Run()
	if !slices.Equal(order, []int{0, 1, 2}) {
		t.Fatalf("service order %v, want [0 1 2]", order)
	}
}

func TestOnDoneCallbackFires(t *testing.T) {
	e, d := newTestDisk(t, HP97560())
	var doneAt sim.Time
	d.Submit(&Request{LBN: 0, Count: 16, Data: make([]byte, 16*512), OnDone: func(tt sim.Time) { doneAt = tt }})
	e.Run()
	if doneAt == 0 {
		t.Fatal("OnDone never fired")
	}
}

func TestWriteWrongLengthPanics(t *testing.T) {
	e, d := newTestDisk(t, HP97560())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	d.Submit(&Request{Write: true, LBN: 0, Count: 16, Data: make([]byte, 3)})
	e.Run()
}

func TestMetricsCountOps(t *testing.T) {
	e, d := newTestDisk(t, HP97560())
	e.Go("t", func(p *sim.Proc) {
		readSectors(p, d, 0, 16)
		d.WriteSync(p, 320, make([]byte, 16*512))
		d.Flush(p)
	})
	e.Run()
	m := d.Metrics()
	if m.Reads != 1 || m.Writes != 1 {
		t.Fatalf("ops %d/%d", m.Reads, m.Writes)
	}
	if m.SectorsRead != 16 || m.SectorsWrite != 16 {
		t.Fatalf("sectors %d/%d", m.SectorsRead, m.SectorsWrite)
	}
	if len(d.pages) != 1 { // the read stores nothing; the write fills one page
		t.Fatalf("stored %d pages", len(d.pages))
	}
}

func TestNonSequentialWriteDrainsFirst(t *testing.T) {
	e, d := newTestDisk(t, HP97560())
	data := make([]byte, 16*512)
	var gap time.Duration
	e.Go("t", func(p *sim.Proc) {
		d.WriteSync(p, 0, data) // starts a write-behind run
		t0 := p.Now()
		d.WriteSync(p, 50000, data) // far away: must drain + seek
		gap = time.Duration(p.Now() - t0)
	})
	e.Run()
	if gap < 3*time.Millisecond {
		t.Fatalf("non-sequential write accepted in %v, expected drain+seek", gap)
	}
}

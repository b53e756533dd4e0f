package disk

// The I/O bus a disk shares with the other drives of its IOP is a
// sim.Pipe; these tests pin the bus behaviour the disks rely on.

import (
	"testing"
	"time"

	"ddio/internal/sim"
)

func TestTransferTimeIncludesOverhead(t *testing.T) {
	e := sim.NewEngine()
	b := sim.NewPipe(e, "scsi", 10e6, 100*time.Microsecond)
	// 8 KB at 10 MB/s = 819.2 us, plus 100 us overhead.
	got := b.TransferTime(8192)
	want := 100*time.Microsecond + time.Duration(8192*100)*time.Nanosecond
	if got != want {
		t.Fatalf("TransferTime = %v, want %v", got, want)
	}
}

func TestBusSerializesContenders(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	b := sim.NewPipe(e, "scsi", 10e6, 0)
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		e.Go("d", func(p *sim.Proc) {
			b.Use(p, 1000) // 100 us each
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	want := []sim.Time{
		sim.Time(100 * time.Microsecond),
		sim.Time(200 * time.Microsecond),
		sim.Time(300 * time.Microsecond),
	}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("transfer ends %v, want %v", ends, want)
		}
	}
	if b.Busy() != 300*time.Microsecond {
		t.Fatalf("busy %v, want 300us for three transfers", b.Busy())
	}
}

func TestBusUtilization(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	b := sim.NewPipe(e, "scsi", 10e6, 0)
	e.Go("d", func(p *sim.Proc) {
		b.Use(p, 1000)
		p.Sleep(100 * time.Microsecond) // idle period
	})
	e.Run()
	if u := float64(b.Busy()) / float64(e.Now()); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization %v, want ~0.5", u)
	}
	if b.Busy() != 100*time.Microsecond {
		t.Fatalf("busy %v", b.Busy())
	}
}

func TestBusCapsAggregateThroughput(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	b := sim.NewPipe(e, "scsi", 10e6, 0)
	const n = 100
	var end sim.Time
	done := sim.NewWaitGroup(e, "wg", n)
	for i := 0; i < n; i++ {
		e.Go("d", func(p *sim.Proc) {
			b.Use(p, 8192)
			done.Done()
		})
	}
	e.Go("waiter", func(p *sim.Proc) { done.Wait(p); end = p.Now() })
	e.Run()
	rate := float64(n*8192) / end.Seconds()
	if rate > 10e6*1.001 {
		t.Fatalf("aggregate %.0f B/s exceeds 10 MB/s bus", rate)
	}
	if rate < 9.9e6 {
		t.Fatalf("saturated bus only reached %.0f B/s", rate)
	}
}

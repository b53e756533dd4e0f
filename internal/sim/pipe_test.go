package sim

import (
	"testing"
	"time"
)

func TestPipeTransferTime(t *testing.T) {
	e := NewEngine()
	pp := NewPipe(e, "p", 1e6, time.Millisecond) // 1 MB/s + 1 ms setup
	if got := pp.TransferTime(1000); got != time.Millisecond+time.Millisecond {
		t.Fatalf("TransferTime(1000) = %v, want 2ms", got)
	}
	if got := pp.TransferTime(0); got != time.Millisecond {
		t.Fatalf("TransferTime(0) = %v, want 1ms setup", got)
	}
}

func TestPipeZeroBandwidthIsPureLatency(t *testing.T) {
	e := NewEngine()
	pp := NewPipe(e, "cpu", 0, 0)
	if pp.TransferTime(1<<20) != 0 {
		t.Fatal("zero-bandwidth pipe should carry no per-byte cost")
	}
	_, end := pp.ReserveFor(5 * time.Microsecond)
	if end != Time(5*time.Microsecond) {
		t.Fatalf("ReserveFor end %v", end)
	}
}

func TestPipeReservationsQueueFCFS(t *testing.T) {
	e := NewEngine()
	pp := NewPipe(e, "p", 1e9, 0) // 1 ns/byte
	s1, e1 := pp.Reserve(100)
	s2, e2 := pp.Reserve(50)
	if s1 != 0 || e1 != 100 {
		t.Fatalf("first reservation [%v,%v]", s1, e1)
	}
	if s2 != 100 || e2 != 150 {
		t.Fatalf("second reservation [%v,%v], want [100,150]", s2, e2)
	}
	if pp.freeAt != 150 {
		t.Fatalf("freeAt %v", pp.freeAt)
	}
}

func TestPipeIdleGapThenReserve(t *testing.T) {
	e := NewEngine()
	pp := NewPipe(e, "p", 1e9, 0)
	pp.Reserve(10)
	callAt(e, 100, func() {
		s, _ := pp.Reserve(10)
		if s != 100 {
			t.Errorf("reservation after idle gap starts at %v, want 100", s)
		}
	})
	e.Run()
}

func TestPipeUseBlocksProc(t *testing.T) {
	e := NewEngine()
	pp := NewPipe(e, "p", 1e9, 0)
	var t1, t2 Time
	e.Go("a", func(p *Proc) { pp.Use(p, 100); t1 = p.Now() })
	e.Go("b", func(p *Proc) { pp.Use(p, 100); t2 = p.Now() })
	e.Run()
	if t1 != 100 || t2 != 200 {
		t.Fatalf("procs finished at %v/%v, want 100/200", t1, t2)
	}
}

func TestPipeBusyAndUtilization(t *testing.T) {
	e := NewEngine()
	pp := NewPipe(e, "p", 1e9, 0)
	pp.Reserve(100)
	callAt(e, 400, func() {})
	e.Run()
	if pp.Busy() != 100*time.Nanosecond {
		t.Fatalf("Busy %v", pp.Busy())
	}
	if u := float64(pp.Busy()) / 400; u != 0.25 {
		t.Fatalf("Utilization %v, want 0.25", u)
	}
	if pp.freeAt != 100 {
		t.Fatalf("pipe free at %v, want 100ns", pp.freeAt)
	}
}

func TestPipeUseForChargesExactDuration(t *testing.T) {
	e := NewEngine()
	pp := NewPipe(e, "cpu", 0, 42*time.Second) // perUse must NOT apply
	var end Time
	e.Go("p", func(p *Proc) {
		pp.UseFor(p, 7*time.Microsecond)
		end = p.Now()
	})
	e.Run()
	if end != Time(7*time.Microsecond) {
		t.Fatalf("UseFor ended at %v, want 7us", end)
	}
}

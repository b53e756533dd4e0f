package sim

import (
	"testing"
	"time"
)

func TestBarrierReleasesAllAndReuses(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(e, "b", 3)
	var phase1, phase2 int
	for i := 0; i < 3; i++ {
		i := i
		e.Go("p", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond)
			b.Wait(p)
			phase1++
			p.Sleep(time.Millisecond)
			b.Wait(p)
			phase2++
		})
	}
	e.Run()
	if phase1 != 3 || phase2 != 3 {
		t.Fatalf("phases %d/%d, want 3/3", phase1, phase2)
	}
	if e.NumBlocked() != 0 {
		t.Fatal("procs stuck at barrier")
	}
}

func TestBarrierSinglePartyPassesThrough(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(e, "b", 1)
	passed := false
	e.Go("p", func(p *Proc) { b.Wait(p); passed = true })
	e.Run()
	if !passed {
		t.Fatal("single-party barrier blocked")
	}
}

func TestBarrierZeroPartiesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewBarrier(NewEngine(), "b", 0)
}

func TestWaitGroupWaitsForZero(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e, "wg", 0)
	var doneAt Time
	wg.Add(3)
	for i := 1; i <= 3; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond)
			wg.Done()
		})
	}
	e.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	e.Run()
	if doneAt != Time(3*time.Millisecond) {
		t.Fatalf("waiter released at %v, want 3ms", doneAt)
	}
}

func TestWaitGroupZeroCountReturnsImmediately(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e, "wg", 0)
	ok := false
	e.Go("p", func(p *Proc) { wg.Wait(p); ok = true })
	e.Run()
	if !ok {
		t.Fatal("Wait on zero counter blocked")
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e, "wg", 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative counter")
		}
	}()
	wg.Done()
}

func TestCondSignalWakesOneFIFO(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "c")
	var got []int
	for i := 0; i < 3; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			c.Wait(p)
			got = append(got, i)
		})
	}
	e.Go("signaler", func(p *Proc) {
		p.Sleep(time.Millisecond)
		c.Signal()
		p.Sleep(time.Millisecond)
		c.Broadcast()
	})
	e.Run()
	if len(got) != 3 || got[0] != 0 {
		t.Fatalf("wake order %v", got)
	}
}

func TestCondSignalWithoutWaitersIsNoop(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "c")
	c.Signal()
	c.Broadcast()
	e.Run() // nothing scheduled, nothing panics
}

package sim

import (
	"strings"
	"testing"
	"time"
)

// recoverPanic runs fn and returns the recovered panic rendered as a
// string ("" if fn returned normally).
func recoverPanic(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			if s, ok := r.(string); ok {
				msg = s
			} else {
				msg = "non-string panic"
			}
		}
	}()
	fn()
	return ""
}

func TestPastEventPanicNamesProc(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var msg string
	e.Go("worker", func(p *Proc) {
		p.Sleep(100)
		msg = recoverPanic(func() { callAt(e, e.Now()-1, func() {}) })
	})
	e.Run()
	if !strings.Contains(msg, "proc worker") || !strings.Contains(msg, "in the past") {
		t.Fatalf("proc-context past-At panic %q does not name the proc", msg)
	}
}

func TestPastEventPanicNamesEventContext(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var msg string
	callAt(e, 100, func() {
		msg = recoverPanic(func() { callAt(e, 50, func() {}) })
	})
	e.Run()
	if !strings.Contains(msg, "event context") || !strings.Contains(msg, "in the past") {
		t.Fatalf("event-context past-At panic %q does not name the context", msg)
	}
}

func TestPastDispatchTokenPanicNamesTarget(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	c := NewCond(e, "hold")
	p := e.GoDaemon("sleeper", func(p *Proc) { c.Wait(p) })
	callAt(e, 100, func() {})
	e.Run()
	msg := recoverPanic(func() { e.atProc(50, p) })
	if !strings.Contains(msg, "proc=sleeper") || !strings.Contains(msg, "in the past") {
		t.Fatalf("past token panic %q does not name the target proc", msg)
	}
}

// TestPastCompletionPanicReportsTimes: a completion token scheduled in
// the past goes through the same diagnostic as a dispatch token — both
// times, the target, and the scheduling context.
func TestPastCompletionPanicReportsTimes(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	r := &recordTarget{}
	var msg string
	callAt(e, 100, func() {
		msg = recoverPanic(func() { e.AtCompletion(40, Completion{Target: r}) })
	})
	e.Run()
	for _, want := range []string{"in the past", "now=100ns", "t=40ns", "target=*sim.recordTarget", "by event context"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("past completion panic %q lacks %q", msg, want)
		}
	}
}

func TestDoubleDispatchPanicNamesBothProcs(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	c := NewCond(e, "hold")
	p1 := e.GoDaemon("alpha", func(p *Proc) { c.Wait(p) })
	p2 := e.GoDaemon("beta", func(p *Proc) { c.Wait(p) })
	e.Run() // park both procs on the cond
	var msg string
	callAt(e, e.Now(), func() {
		msg = recoverPanic(func() {
			e.dispatch(p1)
			e.dispatch(p2)
		})
		e.xfer = nil // undo the first dispatch so the run can finish
	})
	e.Run()
	if !strings.Contains(msg, "alpha") || !strings.Contains(msg, "beta") {
		t.Fatalf("double-dispatch panic %q does not name both procs", msg)
	}
}

// TestProcPanicReachesRunCaller: a panic inside a proc body surfaces as
// a panic of Run with the same value, in the caller's goroutine where it
// can be recovered. Close still reclaims the parked procs, and the
// panicked proc's finished carrier is never pooled: a fresh engine that
// borrows every pooled carrier still runs to completion.
func TestProcPanicReachesRunCaller(t *testing.T) {
	e := NewEngine()
	gate := NewCond(e, "gate")
	for i := 0; i < 3; i++ {
		e.Go("parked", func(p *Proc) { gate.Wait(p) })
	}
	e.Go("bomb", func(p *Proc) {
		p.Sleep(time.Microsecond)
		panic("boom")
	})
	got := func() (v any) {
		defer func() { v = recover() }()
		e.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("Run panicked with %v, want the proc's \"boom\"", got)
	}
	before := pooledCarriers()
	e.Close()
	if n := pooledCarriers() - before; n != 3 {
		t.Fatalf("Close pooled %d carriers, want 3 (the parked procs, not the panicked one)", n)
	}
	if n := e.NumBlocked(); n != 0 {
		t.Fatalf("NumBlocked = %d after Close", n)
	}

	k := pooledCarriers() + 2
	e2 := NewEngine()
	defer e2.Close()
	done := 0
	for i := 0; i < k; i++ {
		e2.Go("w", func(p *Proc) {
			p.Sleep(time.Duration(i%5) * time.Microsecond)
			p.Sleep(time.Microsecond)
			done++
		})
	}
	e2.Run()
	if done != k || e2.NumBlocked() != 0 {
		t.Fatalf("fresh engine finished %d of %d procs (%d blocked)", done, k, e2.NumBlocked())
	}
}

// TestCloseSkipsCarrierParkedDuringKill: a body that parks again while
// it is being killed (here, a deferred sleep) leaves its carrier
// suspended mid-unwind. Close must not pool such a carrier, or the next
// engine to borrow it would resume the dead body.
func TestCloseSkipsCarrierParkedDuringKill(t *testing.T) {
	e := NewEngine()
	e.Go("stubborn", func(p *Proc) {
		defer p.Sleep(time.Microsecond)
		NewCond(e, "never").Wait(p)
	})
	e.Run()
	before := pooledCarriers()
	e.Close()
	if n := pooledCarriers() - before; n != 0 {
		t.Fatalf("Close pooled %d carriers, want 0", n)
	}
}

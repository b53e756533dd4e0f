package sim

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// callAt schedules fn at absolute time t through the Callback adapter: the
// tests' stand-in for a one-off timed callback.
func callAt(e *Engine, t Time, fn func()) {
	e.AtCompletion(t, Callback(func(Time) { fn() }))
}

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("new engine at %v, want 0", e.Now())
	}
	if e.queue.len() != 0 {
		t.Fatalf("new engine has %d pending events", e.queue.len())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	callAt(e, 30, func() { got = append(got, 3) })
	callAt(e, 10, func() { got = append(got, 1) })
	callAt(e, 20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired as %v, want [1 2 3]", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock at %v, want 30", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		callAt(e, 5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-broken order %v, want ascending", got)
		}
	}
}

func TestCallbackSchedulesRelativeToNow(t *testing.T) {
	e := NewEngine()
	var fired Time
	callAt(e, Time(time.Millisecond), func() {
		callAt(e, e.Now().Add(time.Millisecond), func() { fired = e.Now() })
	})
	e.Run()
	if fired != Time(2*time.Millisecond) {
		t.Fatalf("nested callback fired at %v, want 2ms", fired)
	}
}

// TestNegativeSleepClampsToNow: Sleep clamps a negative duration to
// zero, so the proc yields for the current instant and other events
// queued for it run first.
func TestNegativeSleepClampsToNow(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go("p", func(p *Proc) {
		callAt(e, 0, func() { order = append(order, "event") })
		p.Sleep(-time.Second)
		order = append(order, "proc")
	})
	e.Run()
	if len(order) != 2 || order[0] != "event" || e.Now() != 0 {
		t.Fatalf("negative Sleep: order %v, now %v", order, e.Now())
	}
}

func TestPastEventPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	callAt(e, 10, func() { callAt(e, 5, func() {}) })
	e.Run()
}

func TestRunUntilStopsEarly(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, tt := range []Time{10, 20, 30, 40} {
		tt := tt
		callAt(e, tt, func() { fired = append(fired, tt) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(25) fired %v", fired)
	}
	if e.queue.len() != 2 {
		t.Fatalf("RunUntil left %d pending, want 2", e.queue.len())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("resumed Run fired %v", fired)
	}
}

func TestRunUntilAdvancesClockWhenIdle(t *testing.T) {
	e := NewEngine()
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("idle RunUntil left clock at %v, want 100", e.Now())
	}
}

func TestEventCountsAccumulate(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		callAt(e, Time(i), func() {})
	}
	e.Run()
	if e.Events() != 7 {
		t.Fatalf("Events() = %d, want 7", e.Events())
	}
}

func TestCloseDiscardsPendingAndKillsProcs(t *testing.T) {
	e := NewEngine()
	callAt(e, 100, func() { t.Fatal("event fired after Close") })
	ran := false
	cleaned := false
	e.Go("sleeper", func(p *Proc) {
		ran = true
		defer func() {
			cleaned = true
			// The kill panic must propagate; swallow only our flag.
			panic(recover().(procKilled))
		}()
		NewCond(e, "never").Wait(p)
		t.Fatal("proc resumed after Close")
	})
	e.RunUntil(0)
	if !ran {
		t.Fatal("proc never started")
	}
	if e.NumBlocked() != 1 {
		t.Fatalf("blocked procs = %d, want 1", e.NumBlocked())
	}
	e.Close()
	if !cleaned {
		t.Fatal("deferred cleanup did not run on kill")
	}
	if e.NumBlocked() != 0 {
		t.Fatalf("blocked procs after Close = %d", e.NumBlocked())
	}
	e.Close() // idempotent
}

// TestCloseUnwindsInCreationOrder: Close kills procs in the order the
// engine created them, so the deferred cleanups of a shut-down machine
// run in the same order on every engine.
func TestCloseUnwindsInCreationOrder(t *testing.T) {
	unwind := func() []string {
		e := NewEngine()
		never := NewCond(e, "never")
		var order []string
		for i := 0; i < 20; i++ {
			name := fmt.Sprintf("p%02d", i)
			e.Go(name, func(p *Proc) {
				defer func() { order = append(order, name) }()
				never.Wait(p)
			})
		}
		e.Run()
		e.Close()
		return order
	}
	first := unwind()
	if len(first) != 20 {
		t.Fatalf("Close unwound %d procs, want 20", len(first))
	}
	for i, name := range first {
		if want := fmt.Sprintf("p%02d", i); name != want {
			t.Fatalf("Close unwound %v, want creation order", first)
		}
	}
	if second := unwind(); !slices.Equal(first, second) {
		t.Fatalf("second engine unwound %v, first %v", second, first)
	}
}

func TestBlockedProcsReportNamesAndStates(t *testing.T) {
	e := NewEngine()
	gate := NewCond(e, "gate")
	e.Go("waiter", func(p *Proc) { gate.Wait(p) })
	e.Run()
	defer e.Close()
	procs := e.BlockedProcs()
	if len(procs) != 1 {
		t.Fatalf("BlockedProcs = %v", procs)
	}
	if procs[0] != "waiter [cond gate]" {
		t.Fatalf("diagnostic %q", procs[0])
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func() []Time {
		e := NewEngine()
		defer e.Close()
		var out []Time
		rng := NewRand(7)
		pipe := NewPipe(e, "p", 1e6, 0)
		for i := 0; i < 50; i++ {
			callAt(e, Time(rng.Int63n(1000)), func() {
				_, end := pipe.Reserve(100)
				out = append(out, end)
			})
		}
		e.Run()
		return out
	}
	a, b := trace(), trace()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if Time(1500000000).Seconds() != 1.5 {
		t.Fatalf("Seconds: %v", Time(1500000000).Seconds())
	}
	if Time(250).Duration() != 250*time.Nanosecond {
		t.Fatalf("Duration: %v", Time(250).Duration())
	}
	if Time(10).Add(5*time.Nanosecond) != 15 {
		t.Fatalf("Add: %v", Time(10).Add(5))
	}
}

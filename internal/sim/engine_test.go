package sim

import (
	"testing"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("new engine at %v, want 0", e.Now())
	}
	if len(e.queue) != 0 {
		t.Fatalf("new engine has %d pending events", len(e.queue))
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
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
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-broken order %v, want ascending", got)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.After(time.Millisecond, func() {
		at = e.Now()
		e.After(time.Millisecond, func() { at = e.Now() })
	})
	e.Run()
	if at != Time(2*time.Millisecond) {
		t.Fatalf("nested After fired at %v, want 2ms", at)
	}
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	e := NewEngine()
	fired := false
	e.After(-time.Second, func() { fired = true })
	e.Run()
	if !fired || e.Now() != 0 {
		t.Fatalf("negative After: fired=%v now=%v", fired, e.Now())
	}
}

func TestPastEventPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(10, func() { e.At(5, func() {}) })
	e.Run()
}

func TestRunUntilStopsEarly(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, tt := range []Time{10, 20, 30, 40} {
		tt := tt
		e.At(tt, func() { fired = append(fired, tt) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(25) fired %v", fired)
	}
	if len(e.queue) != 2 {
		t.Fatalf("RunUntil left %d pending, want 2", len(e.queue))
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
		e.At(Time(i), func() {})
	}
	e.Run()
	if e.Events() != 7 {
		t.Fatalf("Events() = %d, want 7", e.Events())
	}
}

func TestCloseDiscardsPendingAndKillsProcs(t *testing.T) {
	e := NewEngine()
	e.At(100, func() { t.Fatal("event fired after Close") })
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
			e.At(Time(rng.Int63n(1000)), func() {
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

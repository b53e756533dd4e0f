package sim

import (
	"strings"
	"testing"
	"time"
)

func TestProcSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Go("p", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		wake = p.Now()
	})
	e.Run()
	if wake != Time(3*time.Millisecond) {
		t.Fatalf("woke at %v, want 3ms", wake)
	}
}

func TestProcSleepUntilPastIsNow(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Go("p", func(p *Proc) {
		p.Sleep(time.Millisecond)
		p.SleepUntil(0) // in the past
		wake = p.Now()
	})
	e.Run()
	if wake != Time(time.Millisecond) {
		t.Fatalf("woke at %v, want 1ms", wake)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	e := NewEngine()
	var order []string
	for _, name := range []string{"a", "b"} {
		name := name
		e.Go(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				order = append(order, name)
				p.Sleep(time.Millisecond)
			}
		})
	}
	e.Run()
	want := []string{"a", "b", "a", "b", "a", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("interleave %v, want %v", order, want)
		}
	}
}

func TestYieldRunsOthersFirst(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) { order = append(order, "b") })
	e.Run()
	// b starts (same instant) before a's continuation after the yield.
	if order[0] != "a1" || order[1] != "b" || order[2] != "a2" {
		t.Fatalf("yield order %v", order)
	}
}

func TestNestedSpawn(t *testing.T) {
	e := NewEngine()
	var childAt Time
	e.Go("parent", func(p *Proc) {
		p.Sleep(time.Millisecond)
		e.Go("child", func(c *Proc) {
			c.Sleep(time.Millisecond)
			childAt = c.Now()
		})
		p.Sleep(5 * time.Millisecond)
	})
	e.Run()
	if childAt != Time(2*time.Millisecond) {
		t.Fatalf("child finished at %v, want 2ms", childAt)
	}
}

func TestProcNameAndEngineAccessors(t *testing.T) {
	e := NewEngine()
	e.Go("worker", func(p *Proc) {
		if p.Name() != "worker" {
			t.Errorf("Name() = %q", p.Name())
		}
		if p.Engine() != e {
			t.Error("Engine() mismatch")
		}
	})
	e.Run()
}

func TestManyProcsComplete(t *testing.T) {
	e := NewEngine()
	done := 0
	for i := 0; i < 1000; i++ {
		i := i
		e.Go("p", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Microsecond)
			done++
		})
	}
	e.Run()
	if done != 1000 {
		t.Fatalf("%d procs completed, want 1000", done)
	}
	if e.NumBlocked() != 0 {
		t.Fatalf("%d procs leaked", e.NumBlocked())
	}
}

// TestGoNowQueuesNoEvent: GoNow starts its proc within the firing event:
// the queue does not grow, and the proc runs right after the callback,
// at its instant, before the other events queued for that instant.
func TestGoNowQueuesNoEvent(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	at := Time(time.Millisecond)
	var order []string
	var ranAt Time
	callAt(e, at, func() {
		n := e.queue.len()
		e.GoNow("now", func(p *Proc) {
			order = append(order, "proc")
			ranAt = p.Now()
		})
		if e.queue.len() != n {
			t.Errorf("GoNow queued %d events", e.queue.len()-n)
		}
		order = append(order, "callback")
	})
	callAt(e, at, func() { order = append(order, "next") })
	e.Run()
	if len(order) != 3 || order[0] != "callback" || order[1] != "proc" || order[2] != "next" {
		t.Fatalf("order %v, want [callback proc next]", order)
	}
	if ranAt != at || e.Events() != 2 {
		t.Fatalf("proc ran at %v after %d events, want %v after 2", ranAt, e.Events(), at)
	}
	if e.NumBlocked() != 0 {
		t.Fatalf("%d procs blocked", e.NumBlocked())
	}
}

// TestGoNowReusesDeadProcInPlace: a callback that fires on the carrier
// of a proc that just died gets that proc back, so its body continues
// on the same carrier and the engine creates no second proc.
func TestGoNowReusesDeadProcInPlace(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var first, again *Proc
	slept := false
	first = e.Go("first", func(p *Proc) {
		callAt(e, p.Now(), func() {
			again = e.GoNow("again", func(p *Proc) {
				p.Sleep(time.Microsecond)
				slept = true
			})
		})
	})
	e.Run()
	if again != first || len(e.all) != 1 {
		t.Fatalf("GoNow made a new proc (%d procs)", len(e.all))
	}
	if !slept || e.Now() != Time(time.Microsecond) {
		t.Fatalf("reused proc did not run its body (slept %v, now %v)", slept, e.Now())
	}
}

// TestGoNowSecondDispatchPanics: one event can start one proc; a second
// GoNow in the same callback panics naming both, and the first proc
// still runs.
func TestGoNowSecondDispatchPanics(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var msg string
	ran := false
	callAt(e, 5, func() {
		msg = recoverPanic(func() {
			e.GoNow("alpha", func(*Proc) { ran = true })
			e.GoNow("beta", func(*Proc) {})
		})
	})
	e.Run()
	if !strings.Contains(msg, "two procs dispatched by one event (alpha then beta") {
		t.Fatalf("panic %q does not name both procs", msg)
	}
	if !ran {
		t.Fatal("first proc did not run")
	}
}

// TestGoNowOutsideEventContextPanics: from a proc, or before Run, there
// is no firing event to start the proc in.
func TestGoNowOutsideEventContextPanics(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	body := func(*Proc) {}
	if msg := recoverPanic(func() { e.GoNow("early", body) }); !strings.Contains(msg, "outside event context") {
		t.Fatalf("GoNow before Run: panic %q", msg)
	}
	var msg string
	e.Go("p", func(*Proc) { msg = recoverPanic(func() { e.GoNow("inner", body) }) })
	e.Run()
	if !strings.Contains(msg, "GoNow(inner) outside event context") {
		t.Fatalf("GoNow from a proc: panic %q", msg)
	}
}

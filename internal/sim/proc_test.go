package sim

import (
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

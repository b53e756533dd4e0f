package sim

import (
	"sync"
	"testing"
	"time"
)

// TestProcRecycleReusesObject pins the free-list contract: a proc that
// dies is handed out again by the next Go, same object, same carrier.
func TestProcRecycleReusesObject(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	p1 := e.Go("first", func(p *Proc) {})
	c1 := p1.c
	e.Run()
	if len(e.free) != 1 || e.free[0] != p1 {
		t.Fatalf("dead proc not on free list (len %d)", len(e.free))
	}
	ran := false
	p2 := e.Go("second", func(p *Proc) {
		ran = true
		if p.Name() != "second" {
			t.Errorf("recycled proc named %q", p.Name())
		}
	})
	if p2 != p1 || p2.c != c1 {
		t.Fatal("Go did not recycle the dead proc and its carrier")
	}
	e.Run()
	if !ran {
		t.Fatal("recycled incarnation never ran")
	}
}

// TestStaleWakeOnRecycledProcIsDropped is the stale-wake safety pin the
// recycling design hinges on: a proc dies with a wake-up still queued,
// is recycled into a new incarnation that parks, and the stale token
// must fire as a no-op instead of resuming the new incarnation early.
func TestStaleWakeOnRecycledProcIsDropped(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var victim *Proc
	e.Go("victim", func(p *Proc) {
		victim = p
		// Token for this incarnation at t=5µs; the proc dies right away,
		// so by the time it fires the proc has been recycled.
		e.atProc(Time(5*time.Microsecond), p)
	})
	e.RunUntil(0) // victim runs and dies; the 5µs token stays queued
	var wokeAt Time
	reborn := e.Go("reborn", func(p *Proc) {
		p.SleepUntil(Time(10 * time.Microsecond))
		wokeAt = p.Now()
	})
	e.Run()
	if victim == nil || reborn != victim {
		t.Fatalf("reborn proc was not the recycled victim")
	}
	if wokeAt != Time(10*time.Microsecond) {
		t.Fatalf("stale wake resumed the new incarnation at %v, want 10µs", wokeAt)
	}
	// The stale token still fires as an event (event counts must not
	// depend on whether a proc happened to be recycled): victim start,
	// reborn start, stale token, reborn's sleep wake.
	if e.Events() != 4 {
		t.Fatalf("fired %d events, want 4 (stale token must count)", e.Events())
	}
}

// TestStaleWakeOnDeadProcIsDropped covers the simpler half of the same
// hazard: the wake fires after death but before any recycling.
func TestStaleWakeOnDeadProcIsDropped(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.Go("mayfly", func(p *Proc) {
		e.wake(p) // queued self-wake that will outlive the proc
	})
	e.Run() // must terminate: the stale token resumes nothing
	if n := e.NumBlocked(); n != 0 {
		t.Fatalf("NumBlocked = %d after run", n)
	}
}

// TestRecycleChainSameCarrier exercises the self-dispatch fast path:
// when a dying proc's carrier fires the event that re-arms that very
// proc, it must continue straight into the new body — same carrier, no
// switch — for arbitrarily long chains. The respawn goes through an
// event so it runs after the previous incarnation retired.
func TestRecycleChainSameCarrier(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	count := 0
	var body func(p *Proc)
	respawn := callback(func(Time) { e.Go("chain", body) })
	body = func(p *Proc) {
		count++
		if count < 500 {
			e.AtCompletion(p.Now(), respawn)
		}
	}
	e.Go("chain", body)
	e.Run()
	if count != 500 {
		t.Fatalf("chain ran %d incarnations, want 500", count)
	}
	if len(e.free) != 1 {
		t.Fatalf("free list holds %d procs, want 1 (all incarnations share one)", len(e.free))
	}
}

// TestRecycleDirectChain is the eager variant: a body that spawns its
// successor before returning cannot reuse its own proc (it is still
// live), so the engine ping-pongs between exactly two procs.
func TestRecycleDirectChain(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	count := 0
	var body func(p *Proc)
	body = func(p *Proc) {
		count++
		if count < 500 {
			e.Go("chain", body)
		}
	}
	e.Go("chain", body)
	e.Run()
	if count != 500 {
		t.Fatalf("chain ran %d incarnations, want 500", count)
	}
	if len(e.free) != 2 {
		t.Fatalf("free list holds %d procs, want 2 (spawner still live at spawn time)", len(e.free))
	}
}

// TestCloseAfterRecycleIdempotent: Close must release the carriers of
// free-list procs exactly once, and a second Close must be a no-op.
func TestCloseAfterRecycleIdempotent(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.Go("w", func(p *Proc) { p.Sleep(time.Microsecond) })
		e.Run()
	}
	if len(e.free) != 1 {
		t.Fatalf("free list holds %d procs, want 1", len(e.free))
	}
	before := pooledCarriers()
	e.Close()
	e.Close() // must not release a carrier twice
	if n := pooledCarriers() - before; n != 1 {
		t.Fatalf("Close pooled %d carriers, want 1", n)
	}
	if e.NumBlocked() != 0 || len(e.free) != 0 {
		t.Fatalf("Close left procs: blocked %d, free %d", e.NumBlocked(), len(e.free))
	}
	// Spawning after Close hands back an inert proc and schedules nothing.
	p := e.Go("late", func(p *Proc) { t.Error("proc ran after Close") })
	if p == nil || !p.dead {
		t.Fatal("post-Close Go did not return an inert proc")
	}
	e.Run()
}

// TestGoDaemonExcludedFromNumBlocked: daemons park forever by design and
// must not trip the proc-leak check, while still being listed for
// deadlock diagnosis.
func TestGoDaemonExcludedFromNumBlocked(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	work := NewCond(e, "work")
	e.GoDaemon("dispatcher", func(p *Proc) {
		for {
			work.Wait(p)
		}
	})
	e.Go("worker", func(p *Proc) { p.Sleep(time.Microsecond) })
	e.Run()
	if n := e.NumBlocked(); n != 0 {
		t.Fatalf("NumBlocked = %d, want 0 (daemon excluded)", n)
	}
	if procs := e.BlockedProcs(); len(procs) != 1 || procs[0] != "dispatcher [cond work]" {
		t.Fatalf("BlockedProcs = %v", procs)
	}
}

// TestBlockedProcsSorted: diagnostics must not depend on map iteration
// order.
func TestBlockedProcsSorted(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	never := NewCond(e, "never")
	for _, name := range []string{"zeta", "alpha", "mid"} {
		e.Go(name, func(p *Proc) { never.Wait(p) })
	}
	e.Run()
	procs := e.BlockedProcs()
	want := []string{"alpha [cond never]", "mid [cond never]", "zeta [cond never]"}
	if len(procs) != len(want) {
		t.Fatalf("BlockedProcs = %v", procs)
	}
	for i := range want {
		if procs[i] != want[i] {
			t.Fatalf("BlockedProcs[%d] = %q, want %q (sorted)", i, procs[i], want[i])
		}
	}
}

// TestProcSpawnAllocFree is the allocation-regression guard for the
// recycling path: once the engine is warm, a spawn-run cycle must not
// allocate (the proc, its carrier, and its dispatch tokens are all
// reused).
func TestProcSpawnAllocFree(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	fn := func(p *Proc) {}
	for i := 0; i < 8; i++ { // warm the free list, queue, and proc list
		e.Go("w", fn)
		e.Run()
	}
	avg := testing.AllocsPerRun(200, func() {
		e.Go("w", fn)
		e.Run()
	})
	if avg > 0.5 {
		t.Errorf("recycled spawn allocates %.2f objects/op, want 0", avg)
	}
}

// BenchmarkProcSpawn measures the cost of one spawn-run cycle on a warm
// engine — the hot path the free list exists for.
func BenchmarkProcSpawn(b *testing.B) {
	e := NewEngine()
	defer e.Close()
	fn := func(p *Proc) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Go("w", fn)
		e.Run()
	}
}

// pooledCarriers returns the size of the process-wide carrier pool.
func pooledCarriers() int {
	carriers.Lock()
	defer carriers.Unlock()
	return len(carriers.free)
}

// TestCarrierReuseAcrossEngines: procs of a new engine borrow the
// carriers earlier engines released at Close, so once the pool is warm
// an engine's cycle allocates only the k Proc structs plus about 20
// objects for the engine, its proc list, queue and free list, the cond
// and the test's closures (30 at k = 8) — no coroutine. A cycle that missed
// the pool would add about 11 allocations per proc.
func TestCarrierReuseAcrossEngines(t *testing.T) {
	const k, limit = 8, 32
	cycle := func() {
		e := NewEngine()
		gate := NewCond(e, "gate")
		body := func(p *Proc) {
			p.Sleep(time.Microsecond)
			gate.Wait(p)
		}
		for i := 0; i < k; i++ {
			e.Go("w", body)
		}
		e.AtCompletion(Time(2*time.Microsecond), callback(func(Time) { gate.Broadcast() }))
		e.Run()
		e.Close()
	}
	cycle() // warm the pool
	if avg := testing.AllocsPerRun(50, cycle); avg > limit {
		t.Errorf("engine cycle allocates %.1f objects, want <= %d (a coroutine was created)", avg, limit)
	}
}

// TestCarrierPoolConcurrentEngines runs engines on two goroutines at
// once, so the shared carrier pool is exercised under the race detector:
// every run must deliver every message and fire the same events,
// whichever carriers it borrows.
func TestCarrierPoolConcurrentEngines(t *testing.T) {
	run := func() int64 {
		e := NewEngine()
		defer e.Close()
		mb := NewMailbox(e)
		sink := &relay{from: mb}
		sink.recv(0)
		for i := 0; i < 6; i++ {
			e.Go("src", func(p *Proc) {
				for j := 0; j < 20; j++ {
					p.Sleep(time.Duration(i+1) * time.Microsecond)
					mb.Put(j)
				}
			})
		}
		e.Run()
		if got := len(sink.got); got != 6*20 {
			t.Errorf("sink got %d messages, want %d", got, 6*20)
		}
		return e.Events()
	}
	want := run()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := run(); got != want {
					t.Errorf("concurrent run fired %d events, want %d", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkProcHandoff measures one proc-to-proc handoff: two procs
// ping-pong a Cond, each signalling the other and parking, so every op
// is a park, a wake and a switch to the other proc's carrier.
func BenchmarkProcHandoff(b *testing.B) {
	e := NewEngine()
	defer e.Close()
	baton := NewCond(e, "baton")
	left := b.N
	body := func(p *Proc) {
		for left > 0 {
			left--
			baton.Signal()
			baton.Wait(p)
		}
	}
	e.Go("ping", body)
	e.Go("pong", body)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

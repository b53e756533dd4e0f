package sim

import (
	"testing"
	"time"
)

// TestServicePoolReusesWorkers: sequential items are all served by one
// persistent worker — the pool's reason to exist.
func TestServicePoolReusesWorkers(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	served := 0
	procs := map[*Proc]bool{}
	sp := NewServicePool(e, "svc", 2, func(p *Proc, item any) {
		served += item.(int)
		procs[p] = true
		p.Sleep(time.Microsecond)
	})
	for i := 0; i < 10; i++ {
		sp.Submit(1)
		e.Run() // each item completes before the next is submitted
	}
	if served != 10 {
		t.Fatalf("served %d items, want 10", served)
	}
	if len(procs) != 1 || sp.workers != 1 || len(sp.idle) != 1 {
		t.Fatalf("procs %d workers %d idle %d, want 1/1/1", len(procs), sp.workers, len(sp.idle))
	}
	if e.NumBlocked() != 0 {
		t.Fatalf("idle worker counted as blocked: %d", e.NumBlocked())
	}
}

// TestServicePoolGrowsAndShrinks: overlapping items never queue behind a
// busy worker — the pool grows on demand and retires the excess.
func TestServicePoolGrowsAndShrinks(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var starts []Time
	procs := map[*Proc]bool{}
	sp := NewServicePool(e, "svc", 1, func(p *Proc, item any) {
		starts = append(starts, p.Now())
		procs[p] = true
		p.Sleep(time.Millisecond)
	})
	for i := 0; i < 4; i++ {
		sp.Submit(i) // all at t=0, each service takes 1ms
	}
	e.Run()
	if len(procs) != 4 {
		t.Fatalf("served 4 overlapping items on %d procs, want 4", len(procs))
	}
	for i, at := range starts {
		if at != 0 {
			t.Fatalf("item %d started at %v, want 0 (no queuing behind busy workers)", i, at)
		}
	}
	if sp.workers != 1 || len(sp.idle) != 1 {
		t.Fatalf("after drain: workers %d idle %d, want 1/1 (excess retired)", sp.workers, len(sp.idle))
	}
	if len(e.free) != 3 {
		t.Fatalf("engine free list holds %d procs, want 3 retired workers", len(e.free))
	}
}

// TestServicePoolTimingMatchesSpawn is the equivalence contract behind
// the server refactor: a pooled service and spawn-per-request fire the
// same number of events and finish every item at the same virtual time,
// for a workload with bursts, gaps, and re-entrant submissions.
func TestServicePoolTimingMatchesSpawn(t *testing.T) {
	type doneRec struct {
		item int
		at   Time
	}
	workload := func(submit func(e *Engine, item int)) (recs []doneRec, events int64) {
		e := NewEngine()
		defer e.Close()
		// Bursts of 3 at t=0 and t=50µs, plus a straggler at 120µs.
		for burst, base := range []time.Duration{0, 50 * time.Microsecond} {
			for i := 0; i < 3; i++ {
				item := burst*3 + i
				e.After(base, func() { submit(e, item) })
			}
		}
		e.After(120*time.Microsecond, func() { submit(e, 6) })
		e.Run()
		return nil, e.Events()
	}

	var spawnRecs, poolRecs []doneRec
	serve := func(recs *[]doneRec) func(p *Proc, item int) {
		return func(p *Proc, item int) {
			p.Sleep(time.Duration(10+item) * time.Microsecond)
			*recs = append(*recs, doneRec{item, p.Now()})
		}
	}

	spawnBody := serve(&spawnRecs)
	_, spawnEvents := workload(func(e *Engine, item int) {
		e.Go("svc", func(p *Proc) { spawnBody(p, item) })
	})

	poolBody := serve(&poolRecs)
	var sp *ServicePool
	_, poolEvents := workload(func(e *Engine, item int) {
		if sp == nil || sp.eng != e {
			sp = NewServicePool(e, "svc", 2, func(p *Proc, item any) { poolBody(p, item.(int)) })
		}
		sp.Submit(item)
	})

	if spawnEvents != poolEvents {
		t.Fatalf("event counts differ: spawn %d, pool %d", spawnEvents, poolEvents)
	}
	if len(spawnRecs) != len(poolRecs) {
		t.Fatalf("completion counts differ: %d vs %d", len(spawnRecs), len(poolRecs))
	}
	for i := range spawnRecs {
		if spawnRecs[i] != poolRecs[i] {
			t.Fatalf("completion %d differs: spawn %+v, pool %+v", i, spawnRecs[i], poolRecs[i])
		}
	}
}

// TestServicePoolSubmitFromWorker: a service routine may itself submit
// follow-up work (the tcfs prefetch path does exactly this).
func TestServicePoolSubmitFromWorker(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var sp *ServicePool
	served := 0
	sp = NewServicePool(e, "svc", 1, func(p *Proc, item any) {
		served++
		if n := item.(int); n > 0 {
			sp.Submit(n - 1)
		}
		p.Sleep(time.Microsecond)
	})
	sp.Submit(5)
	e.Run()
	if served != 6 {
		t.Fatalf("served %d items, want 6", served)
	}
}

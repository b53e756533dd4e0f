package sim

import (
	"testing"
	"time"
)

// recordTarget is a pooled-style completion target for tests: it records
// fired tokens and drops stale ones by generation, exactly as netsim's
// messages and cluster's operation records do.
type recordTarget struct {
	gen   uint64
	fired []Completion
	at    []Time
}

func (r *recordTarget) Complete(c Completion, now Time) {
	if c.Gen != r.gen {
		return
	}
	r.fired = append(r.fired, c)
	r.at = append(r.at, now)
}

// TestCompletionFiresWithKindArg pins the token round trip: kind and arg
// travel through the event queue unchanged, and the token fires at its
// scheduled time in FIFO order with callback events.
func TestCompletionFiresWithKindArg(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	r := &recordTarget{gen: 7}
	e.AtCompletion(Time(3*time.Microsecond), Completion{Target: r, Gen: 7, Kind: 2, Arg: 41})
	e.AtCompletion(Time(1*time.Microsecond), Completion{Target: r, Gen: 7, Kind: 9, Arg: -5})
	e.Run()
	if len(r.fired) != 2 {
		t.Fatalf("fired %d completions, want 2", len(r.fired))
	}
	if r.fired[0].Kind != 9 || r.fired[0].Arg != -5 || r.at[0] != Time(1*time.Microsecond) {
		t.Fatalf("first completion = kind %d arg %d at %v", r.fired[0].Kind, r.fired[0].Arg, r.at[0])
	}
	if r.fired[1].Kind != 2 || r.fired[1].Arg != 41 || r.at[1] != Time(3*time.Microsecond) {
		t.Fatalf("second completion = kind %d arg %d at %v", r.fired[1].Kind, r.fired[1].Arg, r.at[1])
	}
}

// TestZeroCompletionIsIgnored: the zero Completion means "no callback";
// scheduling it must queue nothing (it is the token analogue of the old
// nil-closure checks at call sites).
func TestZeroCompletionIsIgnored(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.AtCompletion(0, Completion{})
	if e.queue.len() != 0 {
		t.Fatalf("zero completion queued an event")
	}
	var c Completion
	c.Invoke(0) // must be a no-op, not a nil dereference
	if c.Valid() {
		t.Fatal("zero completion reports Valid")
	}
}

// TestStaleCompletionOnRecycledTargetIsDropped mirrors
// TestStaleWakeOnRecycledProcIsDropped for completion targets: a pooled
// record is released (generation bumped) with a token still queued, then
// reused as a new incarnation. The stale token must no-op — but still
// fire as an event, so event counts cannot depend on recycling timing.
func TestStaleCompletionOnRecycledTargetIsDropped(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var arena Arena[recordTarget]
	r := arena.Get()
	r.gen = 1
	// Token for incarnation 1 at t=5µs; the record is released (and its
	// generation bumped) before the token fires.
	e.AtCompletion(Time(5*time.Microsecond), Completion{Target: r, Gen: r.gen, Kind: 1})
	r.gen++ // release path: bump before Put so queued tokens go stale
	arena.Put(r)
	// The next Get hands the same record out as incarnation 2.
	r2 := arena.Get()
	if r2 != r {
		t.Fatal("arena did not recycle the released record")
	}
	e.AtCompletion(Time(10*time.Microsecond), Completion{Target: r2, Gen: r2.gen, Kind: 2})
	e.Run()
	if len(r2.fired) != 1 || r2.fired[0].Kind != 2 {
		t.Fatalf("fired %v, want only the kind-2 token for the new incarnation", r2.fired)
	}
	// Both tokens fired as events: stale drops must not change counts.
	if e.Events() != 2 {
		t.Fatalf("fired %d events, want 2 (stale token must count)", e.Events())
	}
}

// TestAtCompletionAllocFree is the allocation guard the token design
// exists for: scheduling and firing a completion on a warm engine must
// not allocate.
func TestAtCompletionAllocFree(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	wg := NewWaitGroup(e, "alloc", 0)
	done := wg.DoneC()
	for i := 0; i < 8; i++ { // warm the event queue
		wg.Add(1)
		e.AtCompletion(e.Now(), done)
		e.Run()
	}
	avg := testing.AllocsPerRun(200, func() {
		wg.Add(1)
		e.AtCompletion(e.Now(), done)
		e.Run()
	})
	if avg > 0 {
		t.Errorf("completion schedule+fire allocates %.2f objects/op, want 0", avg)
	}
}

// TestArenaLIFOAndZeroing pins Arena's contract: LIFO reuse (most
// recently released first, deterministic) and zero-valued fresh records.
func TestArenaLIFOAndZeroing(t *testing.T) {
	var a Arena[int]
	x, y := a.Get(), a.Get()
	if *x != 0 || *y != 0 {
		t.Fatal("fresh arena records not zero-valued")
	}
	*x, *y = 1, 2
	a.Put(x)
	a.Put(y)
	if got := a.Get(); got != y {
		t.Fatal("arena reuse is not LIFO")
	}
	if got := a.Get(); got != x {
		t.Fatal("arena lost a released record")
	}
	if a.Get() == x {
		t.Fatal("arena handed out a record twice")
	}
}

// TestArenaSlabBoundaries: records carved across several slabs are
// zero-valued and distinct, and reuse stays LIFO across slab boundaries —
// the release order alone decides which record Get returns next.
func TestArenaSlabBoundaries(t *testing.T) {
	type rec struct{ a, b int64 }
	var ar Arena[rec]
	const n = 3*arenaMaxSlab + 7 // spans every slab size
	recs := make([]*rec, n)
	seen := make(map[*rec]bool, n)
	for i := range recs {
		r := ar.Get()
		if *r != (rec{}) {
			t.Fatalf("fresh record %d not zero-valued: %+v", i, *r)
		}
		if seen[r] {
			t.Fatalf("record %d handed out twice", i)
		}
		seen[r] = true
		r.a, r.b = int64(i), -int64(i)
		recs[i] = r
	}
	for i, r := range recs { // writes through one record never reach another
		if r.a != int64(i) || r.b != -int64(i) {
			t.Fatalf("record %d overwritten: %+v", i, *r)
		}
	}
	// Release in an order that interleaves slabs; Get must reverse it.
	order := make([]int, 0, n)
	for i := 0; i < n; i += 2 {
		order = append(order, i)
	}
	for i := n - 1 - n%2; i > 0; i -= 2 {
		order = append(order, i)
	}
	for _, i := range order {
		ar.Put(recs[i])
	}
	for k := len(order) - 1; k >= 0; k-- {
		if got := ar.Get(); got != recs[order[k]] {
			t.Fatalf("reuse %d: got record %d, want %d (LIFO)", len(order)-1-k, got.a, order[k])
		}
	}
	if r := ar.Get(); seen[r] || *r != (rec{}) {
		t.Fatal("exhausted free list did not yield a fresh zero record")
	}
}

// TestWaitGroupCompletionReleasesWaiter: a DoneC token fired by the
// engine must release a parked waiter exactly like Done.
func TestWaitGroupCompletionReleasesWaiter(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	wg := NewWaitGroup(e, "tok", 1)
	var wokeAt Time
	e.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		wokeAt = p.Now()
	})
	e.AtCompletion(Time(4*time.Microsecond), wg.DoneC())
	e.Run()
	if wokeAt != Time(4*time.Microsecond) {
		t.Fatalf("waiter woke at %v, want 4µs", wokeAt)
	}
}

// TestCallbackAdapter: the closure adapter still works for cold paths.
func TestCallbackAdapter(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var got Time
	e.AtCompletion(Time(2*time.Microsecond), Callback(func(now Time) { got = now }))
	e.Run()
	if got != Time(2*time.Microsecond) {
		t.Fatalf("callback fired at %v, want 2µs", got)
	}
}

package sim

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"unsafe"
)

// evLess is the reference (t, seq) order the queue must reproduce.
func evLess(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// popAny pops the minimum with no run limit; the queue must not be empty.
func popAny(t testing.TB, q *eventQueue) event {
	ev, ok := q.pop(math.MaxInt64)
	if !ok {
		t.Fatal("pop on a non-empty queue reported empty")
	}
	return ev
}

// TestQueueEquivalenceRandom is the property that pins the queue to the
// (t, seq) order: on randomized interleavings of pushes and pops — with
// bursts, same-instant ties that exercise the FIFO seq tie-break, and gaps
// from zero to far future — every pop returns exactly the minimum of a
// reference multiset re-sorted with sort.Slice after each push run.
func TestQueueEquivalenceRandom(t *testing.T) {
	deltas := []int64{0, 0, 0, 1, 3, 100, 4096, 1 << 22, 1 << 34}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var ref []event
		var seq int64
		sorted := true
		low := Time(0) // last popped time: pushes may not precede it
		for op := 0; op < 3000; op++ {
			if q.len() != len(ref) {
				t.Fatalf("seed %d op %d: len %d, reference %d", seed, op, q.len(), len(ref))
			}
			// Bias towards pushes while the set is small, so it grows
			// through several array doublings but stays cheap to re-sort.
			if q.len() == 0 || (q.len() < 512 && rng.Intn(3) > 0) {
				burst := 1
				if rng.Intn(20) == 0 {
					burst = 50 + rng.Intn(200)
				}
				for i := 0; i < burst; i++ {
					seq++
					ev := event{t: low + Time(deltas[rng.Intn(len(deltas))]), seq: seq}
					q.push(ev)
					ref = append(ref, ev)
				}
				sorted = false
				continue
			}
			if !sorted {
				sort.Slice(ref, func(i, j int) bool { return evLess(&ref[i], &ref[j]) })
				sorted = true
			}
			got, want := popAny(t, &q), ref[0]
			ref = ref[1:]
			if got.t != want.t || got.seq != want.seq {
				t.Fatalf("seed %d op %d: pop (%d,%d), want (%d,%d)", seed, op, got.t, got.seq, want.t, want.seq)
			}
			low = got.t
		}
		sort.Slice(ref, func(i, j int) bool { return evLess(&ref[i], &ref[j]) })
		for i, want := range ref {
			if got := popAny(t, &q); got.t != want.t || got.seq != want.seq {
				t.Fatalf("seed %d drain %d: pop (%d,%d), want (%d,%d)", seed, i, got.t, got.seq, want.t, want.seq)
			}
		}
		if _, ok := q.pop(math.MaxInt64); ok || q.len() != 0 {
			t.Fatalf("seed %d: drained queue still pops (len %d)", seed, q.len())
		}
		q.release()
	}
}

// TestQueueSameInstantFIFO pins the tie-break rule in isolation: many
// events at one instant fire in push order.
func TestQueueSameInstantFIFO(t *testing.T) {
	var q eventQueue
	defer q.release()
	for i := 1; i <= 100; i++ {
		q.push(event{t: 42, seq: int64(i)})
	}
	for i := 1; i <= 100; i++ {
		if ev := popAny(t, &q); ev.seq != int64(i) {
			t.Fatalf("tie %d popped as seq %d", i, ev.seq)
		}
	}
}

// TestQueueSameInstantAcrossBuckets: events at one instant T are pushed
// while the last popped time steps towards T, so they reach T's slot
// by different routes — pushed far ahead and redistributed once or
// twice, pushed into a bucket between, pushed straight into the
// same-instant bucket — and must still pop in push (seq) order.
func TestQueueSameInstantAcrossBuckets(t *testing.T) {
	const T = 0b1100_0000 // 192
	var q eventQueue
	defer q.release()
	var seq int64
	push := func(tt Time) {
		seq++
		q.push(event{t: tt, seq: seq})
	}
	var want []int64
	tie := func() { push(T); want = append(want, seq) }
	tie()
	tie()
	push(0b1000_0001) // 129: same top bucket as T from last 0
	tie()
	push(0b1011_0000) // 176: T now differs from last at a lower bit
	tie()
	push(0b1100_0000 - 1) // 191: one below T
	tie()
	for steps := 0; steps < 3; steps++ { // pop 129, 176, 191
		if ev := popAny(t, &q); ev.t >= T {
			t.Fatalf("popped T before the earlier events (seq %d)", ev.seq)
		}
		tie()
	}
	for i := 0; i < len(want); i++ {
		ev := popAny(t, &q)
		if ev.t != T || ev.seq != want[i] {
			t.Fatalf("tie %d popped as (%d,%d), want (%d,%d)", i, ev.t, ev.seq, T, want[i])
		}
		if i == 2 {
			tie() // pushed at last == T, behind every earlier tie
		}
	}
	if q.len() != 0 {
		t.Fatalf("%d events left", q.len())
	}
}

// TestQueueShrinkAfterDrain grows the queue with a large burst and drains
// it: order stays exact, and every vacated slot of the retained bucket
// arrays is zeroed, so a drained queue pins no targets.
func TestQueueShrinkAfterDrain(t *testing.T) {
	var q eventQueue
	defer q.release()
	rng := rand.New(rand.NewSource(9))
	c := Callback(func(Time) {})
	for i := 1; i <= 3000; i++ {
		q.push(event{t: Time(rng.Int63n(1 << 30)), seq: int64(i), c: c})
	}
	prev := popAny(t, &q)
	for q.len() > 0 {
		ev := popAny(t, &q)
		if evLess(&ev, &prev) {
			t.Fatalf("popped (%d,%d) after (%d,%d)", ev.t, ev.seq, prev.t, prev.seq)
		}
		prev = ev
	}
	for i, b := range q.b {
		for j, ev := range b[:cap(b)] {
			if ev.c.Target != nil {
				t.Fatalf("vacated slot %d of bucket %d still holds a target", j, i)
			}
		}
	}
}

// TestRunUntilKeepsFarEventsOpen: RunUntil stops short of far events,
// and an event scheduled afterwards between now and them must fire
// first. The queue must not have advanced its base time to the far
// event it looked at and left; the case of one far event (popped whole)
// and of several (a bucket scan) are both covered.
func TestRunUntilKeepsFarEventsOpen(t *testing.T) {
	for _, far := range [][]Time{{1000}, {1000, 1001, 1500}} {
		e := NewEngine()
		var fired []Time
		at := func(tt Time) { callAt(e, tt, func() { fired = append(fired, tt) }) }
		at(10)
		for _, tt := range far {
			at(tt)
		}
		e.RunUntil(500)
		if e.Now() != 10 || len(fired) != 1 {
			t.Fatalf("far %v: RunUntil(500) fired %v, clock %v", far, fired, e.Now())
		}
		at(200)
		at(999)
		e.Run()
		want := append([]Time{10, 200, 999}, far...)
		if len(fired) != len(want) {
			t.Fatalf("far %v: fired %v, want %v", far, fired, want)
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("far %v: fired %v, want %v", far, fired, want)
			}
		}
		e.Close()
	}
}

// countTarget is an allocation-free completion target.
type countTarget struct{ n int }

func (c *countTarget) Complete(Completion, Time) { c.n++ }

// queueCycle runs one engine with n events spread the way a large
// machine's are — 64 sources, each a run of increasing times — and
// closes it.
func queueCycle(n int, c *countTarget) {
	e := NewEngine()
	for i := 0; i < n; i++ {
		src, k := i%64, i/64
		e.AtCompletion(Time(src*37+k*(500+src)), Completion{Target: c})
	}
	e.Run()
	e.Close()
}

// TestCloseZeroesPooledQueue: Close returns the engine's bucket storage
// to the process-wide pool with every slot zeroed, so a pooled set pins
// none of a closed run's targets.
func TestCloseZeroesPooledQueue(t *testing.T) {
	e := NewEngine()
	c := &countTarget{}
	for i := 0; i < 5000; i++ {
		e.AtCompletion(Time(i*7919%100003), Completion{Target: c})
	}
	e.RunUntil(50000) // leave about half pending in partly read buckets
	set := e.queue.b
	e.Close()
	queueSets.Lock()
	defer queueSets.Unlock()
	pooled := false
	for _, s := range queueSets.free {
		pooled = pooled || s == set
		for i, b := range s {
			for j, ev := range b[:cap(b)] {
				if ev != (event{}) {
					t.Fatalf("pooled bucket %d slot %d not zeroed: %+v", i, j, ev)
				}
			}
		}
	}
	if !pooled {
		t.Fatal("Close did not return the engine's buckets to the pool")
	}
}

// TestWarmEngineQueueAllocFree: once the pool is warm, an engine cycle
// holding more than 10k pending events allocates no more than a cycle
// with one event — the bucket storage comes from the pool, which
// outlives lone engines (the slab list does not).
func TestWarmEngineQueueAllocFree(t *testing.T) {
	const n = 12000
	c := &countTarget{}
	queueCycle(n, c) // warm the pool
	if c.n != n {
		t.Fatalf("fired %d events, want %d", c.n, n)
	}
	base := testing.AllocsPerRun(5, func() { queueCycle(1, c) })
	big := testing.AllocsPerRun(5, func() { queueCycle(n, c) })
	if big > base {
		t.Errorf("warm cycle with %d events allocates %.1f objects, %.1f with one: the queue allocated", n, big, base)
	}
}

// BenchmarkQueue measures raw push/pop cost per event.
//
// hold/N is the hold model (pop one, push one a random distance ahead)
// at pending-set sizes from a small run to a 64-node machine.
//
// traffic is shaped like the 64-node disk-directed write: 64 sources
// each push a block of 1,024 increasing times (one per 8-byte record)
// and push their next block when the last of it pops, so the queue
// drains while it refills.
func BenchmarkQueue(b *testing.B) {
	for _, size := range []int{4, 32, 512, 8192} {
		b.Run("hold/"+strconv.Itoa(size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var q eventQueue
			defer q.release()
			var seq int64
			for i := 0; i < size; i++ {
				seq++
				q.push(event{t: Time(rng.Int63n(1 << 20)), seq: seq})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev, _ := q.pop(math.MaxInt64)
				seq++
				q.push(event{t: ev.t + Time(rng.Int63n(1<<20)), seq: seq})
			}
		})
	}
	b.Run("traffic", func(b *testing.B) {
		const sources, block = 64, 1024
		rng := rand.New(rand.NewSource(1))
		var q eventQueue
		defer q.release()
		var seq int64
		var left [sources]int
		issue := func(src int, now Time) {
			t := now + Time(rng.Int63n(4000))
			gap := Time(1000 + 50*src)
			for k := 0; k < block; k++ {
				seq++
				t += gap
				q.push(event{t: t, seq: seq, c: Completion{Arg: int64(src)}})
			}
			left[src] = block
		}
		for src := range left {
			issue(src, 0)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev, _ := q.pop(math.MaxInt64)
			src := int(ev.c.Arg)
			if left[src]--; left[src] == 0 {
				issue(src, ev.t)
			}
		}
	})
}

// TestQueuePoolBounded: the pool keeps at most queueSetsMax sets and
// queuePoolCap bytes of bucket capacity; a set past either bound is
// dropped, and the byte count matches what the pool holds.
func TestQueuePoolBounded(t *testing.T) {
	var qs [queueSetsMax + 2]eventQueue
	for i := range qs {
		qs[i].push(event{t: 1, seq: 1})
	}
	for i := range qs {
		qs[i].release()
	}
	var big eventQueue
	big.push(event{t: 1, seq: 1})
	set := big.b
	set[5] = make([]event, 0, queuePoolCap/int(unsafe.Sizeof(event{}))+1)
	big.release()

	queueSets.Lock()
	defer queueSets.Unlock()
	if n := len(queueSets.free); n > queueSetsMax {
		t.Fatalf("pool holds %d sets, want <= %d", n, queueSetsMax)
	}
	held := 0
	for _, s := range queueSets.free {
		if s == set {
			t.Fatal("a set over the byte cap was pooled")
		}
		held += s.bytes()
	}
	if held != queueSets.bytes || held > queuePoolCap {
		t.Fatalf("pool holds %d bytes, counts %d, cap %d", held, queueSets.bytes, queuePoolCap)
	}
}

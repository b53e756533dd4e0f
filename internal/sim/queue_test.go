package sim

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// TestQueueEquivalenceRandom is the property that pins the heap to the
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
			if len(q) != len(ref) {
				t.Fatalf("seed %d op %d: len %d, reference %d", seed, op, len(q), len(ref))
			}
			// Bias towards pushes while the set is small, so it grows
			// through several array doublings but stays cheap to re-sort.
			if len(q) == 0 || (len(q) < 512 && rng.Intn(3) > 0) {
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
			got, want := q.pop(), ref[0]
			ref = ref[1:]
			if got.t != want.t || got.seq != want.seq {
				t.Fatalf("seed %d op %d: pop (%d,%d), want (%d,%d)", seed, op, got.t, got.seq, want.t, want.seq)
			}
			low = got.t
		}
		sort.Slice(ref, func(i, j int) bool { return evLess(&ref[i], &ref[j]) })
		for i, want := range ref {
			if got := q.pop(); got.t != want.t || got.seq != want.seq {
				t.Fatalf("seed %d drain %d: pop (%d,%d), want (%d,%d)", seed, i, got.t, got.seq, want.t, want.seq)
			}
		}
	}
}

// TestQueueSameInstantFIFO pins the tie-break rule in isolation: many
// events at one instant fire in push order.
func TestQueueSameInstantFIFO(t *testing.T) {
	var q eventQueue
	for i := 1; i <= 100; i++ {
		q.push(event{t: 42, seq: int64(i)})
	}
	for i := 1; i <= 100; i++ {
		if ev := q.pop(); ev.seq != int64(i) {
			t.Fatalf("tie %d popped as seq %d", i, ev.seq)
		}
	}
}

// TestQueueShrinkAfterDrain grows the heap with a large burst and drains
// it: order stays exact, and every vacated slot of the retained backing
// array is zeroed, so a drained queue pins no closures or targets.
func TestQueueShrinkAfterDrain(t *testing.T) {
	var q eventQueue
	rng := rand.New(rand.NewSource(9))
	fn := func() {}
	for i := 1; i <= 3000; i++ {
		q.push(event{t: Time(rng.Int63n(1 << 30)), seq: int64(i), fn: fn})
	}
	prev := q.pop()
	for len(q) > 0 {
		ev := q.pop()
		if evLess(&ev, &prev) {
			t.Fatalf("popped (%d,%d) after (%d,%d)", ev.t, ev.seq, prev.t, prev.seq)
		}
		prev = ev
	}
	for i, ev := range q[:cap(q)] {
		if ev.fn != nil {
			t.Fatalf("vacated slot %d still holds a closure", i)
		}
	}
}

// BenchmarkQueue measures raw push/pop throughput on a hold-model
// workload (pop one, push one a random distance ahead) — the steady
// state the engine presents — at pending-set sizes from a small run to a
// 64-node machine.
func BenchmarkQueue(b *testing.B) {
	for _, size := range []int{4, 32, 512, 8192} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var q eventQueue
			var seq int64
			for i := 0; i < size; i++ {
				seq++
				q.push(event{t: Time(rng.Int63n(1 << 20)), seq: seq})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := q.pop()
				seq++
				q.push(event{t: ev.t + Time(rng.Int63n(1<<20)), seq: seq})
			}
		})
	}
}

package sim

// eventQueue is the engine's pending-event set: a binary min-heap ordered
// by (t, seq) — virtual time first, then insertion sequence, so events
// scheduled for the same instant fire in FIFO order. (t, seq) is a strict
// total order, so the firing sequence is a pure function of the pushes.
//
// The engine's queue is concrete (no interface dispatch per push or pop)
// and its backing array keeps its capacity across drains, so a run in
// steady state pushes and pops without allocating. A calendar queue is
// O(1) per event and beats the heap in microbenchmarks at large pending
// sets, but end to end its ring resizes cost more than they save
// (PERF.md pass 7).
type eventQueue []event

// evLess is the queue's strict total order.
func evLess(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the (t, seq)-minimum event. The queue must not
// be empty.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release the closure and targets for GC
	h = h[:n]
	*q = h
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && evLess(&h[r], &h[l]) {
			c = r
		}
		if !evLess(&h[c], &h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top
}

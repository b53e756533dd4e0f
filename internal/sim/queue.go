package sim

import (
	"math/bits"
	"sync"
	"unsafe"
)

// eventQueue is the engine's pending-event set: a radix heap on virtual
// time (a monotone priority queue; Ahuja, Mehlhorn, Orlin & Tarjan,
// J. ACM 1990), ordered by (t, push order) — virtual time first, then
// the order of the pushes, so events scheduled for the same instant fire
// in FIFO order. That is a strict total order, so the firing sequence is
// a pure function of the pushes.
//
// Why a radix heap: simulated time never runs backwards (AtCompletion
// rejects t < Now), which is exactly the monotone condition the structure
// needs. A push is one append and a pop is usually one append-order read,
// where a binary heap sifts log2(n) levels of records comparing times at
// each; with the tens of thousands of pending events of a
// 64-node machine the heap's sift-down was the largest host cost
// (PERF.md pass 16). A redistribution moves each event into a strictly
// lower bucket, so an event moves at most once per bit of the span
// between its push and its pop.
//
// Layout: last is the time of the last popped event, and no pending
// event precedes it. Bucket 0 holds the events at t == last; bucket i
// (1..63) holds those whose t first differs from last at bit i-1, that
// is bits.Len64(t ^ last) == i. Every event of bucket i is earlier than
// every event of bucket j > i, so the minimum lies in the lowest
// non-empty bucket, found with mask and TrailingZeros64. Bucket 0 is read
// as a FIFO through head and reset when it drains; last cannot move while
// it holds events, so it never holds more than one instant's events. A
// pop from bucket i > 0 takes the bucket's minimum as the new last and
// redistributes the rest into the (empty) buckets below i.
//
// Order invariant: every bucket is in push order. A push appends the
// newest event, and a redistribution walks its bucket in order into
// buckets that are empty (all lie below the lowest non-empty one), so
// ties at one instant fire in push order however they reached it. No
// event carries a sequence number: its position is its order.
type eventQueue struct {
	last Time
	n    int       // pending events
	head int       // next unread slot of bucket 0
	mask uint64    // bit i set iff bucket i holds an event
	b    *queueSet // nil until the first push; pooled by release
}

// queueSet is the queue's bucket storage. Popped and moved-from slots are
// zeroed as they are vacated, so the set pins no targets beyond the
// pending events.
type queueSet [64][]event

func (q *eventQueue) len() int { return q.n }

// push adds ev. ev.t must not precede the last popped time.
func (q *eventQueue) push(ev event) {
	if q.b == nil {
		q.b = getQueueSet()
	}
	i := bits.Len64(uint64(ev.t ^ q.last))
	q.b[i] = append(q.b[i], ev)
	q.mask |= 1 << i
	q.n++
}

// pop removes and returns the (t, push order)-minimum event if its time
// is at most until. A minimum after until stays where it is and last does
// not move, so events between now and until may still be pushed
// (RunUntil).
func (q *eventQueue) pop(until Time) (event, bool) {
	if q.mask == 0 {
		return event{}, false
	}
	i := bits.TrailingZeros64(q.mask)
	b := q.b[i]
	if i == 0 {
		if q.last > until {
			return event{}, false
		}
		ev := b[q.head]
		b[q.head] = event{}
		q.head++
		if q.head == len(b) {
			q.b[0] = b[:0]
			q.head = 0
			q.mask &^= 1
		}
		q.n--
		return ev, true
	}
	// The bucket's minimum: the first event at its earliest time, which
	// is also the earliest pushed at that time.
	m := 0
	for j := 1; j < len(b); j++ {
		if b[j].t < b[m].t {
			m = j
		}
	}
	ev := b[m]
	if ev.t > until {
		return event{}, false
	}
	q.last = ev.t
	for j := range b {
		if j != m {
			k := bits.Len64(uint64(b[j].t ^ ev.t))
			q.b[k] = append(q.b[k], b[j])
			q.mask |= 1 << k
		}
	}
	clear(b)
	q.b[i] = b[:0]
	q.mask &^= 1 << i
	q.n--
	return ev, true
}

// release empties the queue, zeroing every slot, and returns its bucket
// storage to the pool.
func (q *eventQueue) release() {
	if s := q.b; s != nil {
		for i := range s {
			clear(s[i])
			s[i] = s[i][:0]
		}
		putQueueSet(s)
	}
	*q = eventQueue{}
}

// queueSets is the process-wide free list of bucket storage, pooled like
// carriers: a run's buckets grow once (4.8 MB of them on the 64-node
// disk-directed write, whose pending set peaks above 50k events), and a
// sequence of lone runs would otherwise grow them again for every
// engine — the slab list cannot serve them, since it empties whenever
// its last engine closes. It is not a sync.Pool, which a collection
// would empty between two lone runs.
//
// The list is bounded two ways: it keeps at most queueSetsMax sets, and
// at most queuePoolCap bytes of bucket capacity across them. A set
// released when either bound is reached is dropped to the collector.
var queueSets struct {
	sync.Mutex
	free  []*queueSet
	bytes int // bucket capacity held in free
}

const (
	queueSetsMax = 8
	queuePoolCap = 16 << 20
)

// bytes returns the capacity of the set's buckets in bytes.
func (s *queueSet) bytes() int {
	n := 0
	for i := range s {
		n += cap(s[i])
	}
	return n * int(unsafe.Sizeof(event{}))
}

func getQueueSet() *queueSet {
	queueSets.Lock()
	defer queueSets.Unlock()
	n := len(queueSets.free)
	if n == 0 {
		return new(queueSet)
	}
	s := queueSets.free[n-1]
	queueSets.free[n-1] = nil
	queueSets.free = queueSets.free[:n-1]
	queueSets.bytes -= s.bytes()
	return s
}

// putQueueSet pools an empty, zeroed set.
func putQueueSet(s *queueSet) {
	n := s.bytes()
	queueSets.Lock()
	defer queueSets.Unlock()
	if len(queueSets.free) < queueSetsMax && queueSets.bytes+n <= queuePoolCap {
		queueSets.free = append(queueSets.free, s)
		queueSets.bytes += n
	}
}

package sim

// Synchronization primitives for simulated processes. All of them follow
// the same discipline: blocking operations take the calling *Proc;
// non-blocking operations (signals, releases) may be called from proc or
// event context and hand wake-ups to the engine as zero-delay events, so
// execution order stays deterministic.

// Barrier is a reusable N-party barrier, used by compute processors
// around collective operations.
type Barrier struct {
	eng       *Engine
	name      string
	parkLabel string
	parties   int
	arrived   int
	waits     []*Proc
}

// NewBarrier returns a barrier for the given number of parties.
func NewBarrier(e *Engine, name string, parties int) *Barrier {
	if parties < 1 {
		panic("sim: barrier needs at least one party")
	}
	return &Barrier{eng: e, name: name, parkLabel: "barrier " + name, parties: parties}
}

// Wait blocks p until all parties have arrived; the last arrival releases
// everyone and resets the barrier for reuse.
func (b *Barrier) Wait(p *Proc) {
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		for _, w := range b.waits {
			b.eng.wake(w)
		}
		b.waits = b.waits[:0]
		return
	}
	b.waits = append(b.waits, p)
	p.park(b.parkLabel)
}

// WaitGroup counts outstanding work items; procs can wait for the count
// to reach zero. Unlike sync.WaitGroup it is usable from event context
// for Add/Done.
type WaitGroup struct {
	eng       *Engine
	name      string
	parkLabel string
	count     int
	waits     []*Proc
}

// NewWaitGroup returns a WaitGroup with an initial count.
func NewWaitGroup(e *Engine, name string, count int) *WaitGroup {
	return &WaitGroup{eng: e, name: name, parkLabel: "waitgroup " + name, count: count}
}

// Add adds delta (which may be negative) to the counter. If the counter
// reaches zero all waiters are released. A negative counter panics.
func (w *WaitGroup) Add(delta int) {
	w.count += delta
	if w.count < 0 {
		panic("sim: negative WaitGroup counter " + w.name)
	}
	if w.count == 0 {
		for _, p := range w.waits {
			w.eng.wake(p)
		}
		w.waits = w.waits[:0]
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Complete implements CompletionTarget: a fired token decrements the
// counter by one, so "signal this WaitGroup when the message lands" is
// a token instead of a boxed wg.Done closure. WaitGroups are never
// recycled under outstanding tokens (Reset panics while in use), so Gen
// is ignored.
func (w *WaitGroup) Complete(Completion, Time) { w.Done() }

// DoneC returns the completion token equivalent of Done.
func (w *WaitGroup) DoneC() Completion { return Completion{Target: w} }

// Reset re-arms a drained WaitGroup with a fresh count so callers can
// pool per-request WaitGroups instead of allocating one per operation.
// Resetting while the counter is nonzero or waiters are parked panics:
// that would silently detach them from their outcome.
func (w *WaitGroup) Reset(count int) {
	if w.count != 0 || len(w.waits) != 0 {
		panic("sim: Reset of an in-use WaitGroup " + w.name)
	}
	if count < 0 {
		panic("sim: negative WaitGroup counter " + w.name)
	}
	w.count = count
}

// Count returns the current counter value.
func (w *WaitGroup) Count() int { return w.count }

// Wait blocks p until the counter is zero. A zero counter returns
// immediately.
func (w *WaitGroup) Wait(p *Proc) {
	if w.count == 0 {
		return
	}
	w.waits = append(w.waits, p)
	p.park(w.parkLabel)
}

// Cond is a condition variable: procs wait for a predicate guarded by the
// single-threaded engine, and any context may signal.
type Cond struct {
	eng       *Engine
	name      string
	parkLabel string
	waits     fifo[*Proc]
}

// NewCond returns a new condition variable.
func NewCond(e *Engine, name string) *Cond {
	return &Cond{eng: e, name: name, parkLabel: "cond " + name}
}

// Wait blocks p until Signal or Broadcast wakes it. As with all condition
// variables, callers must re-check their predicate after waking.
func (c *Cond) Wait(p *Proc) {
	c.waits.push(p)
	p.park(c.parkLabel)
}

// Signal wakes one waiter (FIFO), if any.
func (c *Cond) Signal() {
	if c.waits.len() > 0 {
		c.eng.wake(c.waits.pop())
	}
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast() {
	for c.waits.len() > 0 {
		c.eng.wake(c.waits.pop())
	}
}

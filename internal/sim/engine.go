// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel plays the role Proteus played in the paper: it advances a
// virtual clock from event to event and runs simulated "processes"
// (cooperatively scheduled coroutines) one at a time, so a run is a pure
// function of its inputs and seeds. Entities that need to block — disk
// servers, collective-request workers, compute-processor request pumps —
// are Procs; activity that only waits out costs (message delivery, DMA
// deposit, file-server dispatch, cache handlers until they must wait)
// is modeled with completion tokens, timed events that call back a
// long-lived target object (see completion.go). Waking a proc is itself
// a completion token whose target is the proc, and a callback that must
// block starts a proc within its own event (Engine.GoNow).
//
// Time is absolute virtual time in nanoseconds (Time); durations use the
// standard time.Duration. The engine is not safe for concurrent use from
// multiple OS threads: all interaction happens either before Run, from
// within completion callbacks, or from within Procs.
package sim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"ddio/internal/trace"
)

// Time is an absolute virtual time in nanoseconds since the start of the
// simulation.
type Time int64

// Seconds converts t to seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Duration converts t, interpreted as a span since time zero, to a
// time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Add returns t shifted by d. It does not clamp: callers pass d >= 0,
// as Sleep does after clamping a negative d to zero, because a time in
// the past cannot be scheduled.
func (t Time) Add(d time.Duration) Time {
	u := t + Time(d)
	if u < t && d > 0 { // overflow; callers never get here in practice
		panic("sim: time overflow")
	}
	return u
}

// String formats t as a duration since time zero (e.g. "1.5ms").
func (t Time) String() string { return time.Duration(t).String() }

// event is one scheduled completion token. Every event has this shape:
// waking a proc is a token whose target is the proc (procToken), and
// message delivery, DMA deposit and the like are tokens whose targets
// are pooled records (see completion.go). Tokens carry no closure, which
// is what lets sleeps, wakes, spawns, and message completions run
// allocation-free.
type event struct {
	t   Time
	seq int64 // FIFO tie-break for events at the same instant
	c   Completion
}

// Engine is a discrete-event simulator instance.
//
// The zero value is not usable; create engines with NewEngine.
//
// Exactly one coroutine — the Run caller (the hub) or one proc's carrier
// — executes simulation code at any moment. It holds the "execution
// token" and fires events itself. When a proc parks, its carrier keeps
// the token and continues the event loop in place; if the next dispatch
// is the proc itself it simply carries on, and only a dispatch of
// another proc makes it yield to the hub, which resumes that proc's
// carrier. Switches go through iter.Pull's direct coroutine switch, so
// no channel, futex or cross-thread wake-up is involved.
type Engine struct {
	now     Time
	queue   eventQueue
	seq     int64
	xfer    *Proc   // proc to hand the token to after the current event
	cur     *Proc   // proc currently executing (nil in event context)
	until   Time    // run limit of the current Run/RunUntil
	all     []*Proc // every Proc object created, live or dead, in creation order
	free    []*Proc // dead procs (their carriers suspended) awaiting reuse
	running bool
	closed  bool
	events  int64           // total events fired, for diagnostics
	rec     *trace.Recorder // nil unless event tracing is attached
}

// NewEngine returns a new engine with the clock at zero and no pending
// events. The engine counts as open, keeping released slabs (see
// slab.go) for reuse, until Close.
func NewEngine() *Engine {
	slabs.count(1, 0)
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetRecorder attaches an event-trace recorder (nil detaches). The
// recorder is passive — it never schedules events — so a traced run
// fires the identical event sequence as an untraced one. Attach before
// building the machine: components capture the recorder when they are
// constructed.
func (e *Engine) SetRecorder(r *trace.Recorder) { e.rec = r }

// Recorder returns the attached trace recorder. A nil result is a valid
// "tracing off" recorder: all its record methods are no-ops, so
// instrumentation sites use the return unconditionally.
func (e *Engine) Recorder() *trace.Recorder { return e.rec }

// Events returns the number of events fired so far (diagnostic).
func (e *Engine) Events() int64 { return e.events }

// AtCompletion schedules c to fire at absolute time t. The token travels
// by value in the event record, so scheduling allocates nothing. A zero
// c is ignored. Scheduling in the past (t < Now) panics: it would
// silently corrupt causality.
func (e *Engine) AtCompletion(t Time, c Completion) {
	if e.closed || c.Target == nil {
		return
	}
	if t < e.now {
		e.pastPanic(t, c)
	}
	e.seq++
	e.queue.push(event{t: t, seq: e.seq, c: c})
}

// pastPanic reports a token scheduled before now: both times, the
// target (the proc's name for a dispatch token), and who scheduled it.
func (e *Engine) pastPanic(t Time, c Completion) {
	target := fmt.Sprintf("target=%T", c.Target)
	if pt, ok := c.Target.(*procToken); ok {
		target = "proc=" + pt.name
	}
	by := "event context"
	if e.cur != nil {
		by = "proc " + e.cur.name
	}
	panic(fmt.Sprintf("sim: event scheduled in the past (now=%v, t=%v, %s, by %s)", e.now, t, target, by))
}

// atProc schedules a dispatch token for p at absolute time t, tagged with
// p's current generation.
func (e *Engine) atProc(t Time, p *Proc) {
	e.AtCompletion(t, Completion{Target: (*procToken)(p), Gen: p.gen})
}

// Run executes events in timestamp order until no events remain. Procs
// that are still blocked when the queue drains stay blocked (see
// BlockedProcs and Close). Run may be called again after it returns if
// new events have been scheduled.
func (e *Engine) Run() { e.run(math.MaxInt64) }

// RunUntil executes events with timestamps <= t, then stops, leaving the
// clock at min(t, time of last event). Events after t remain queued.
func (e *Engine) RunUntil(t Time) {
	e.run(t)
	if e.now < t && e.queue.len() == 0 {
		e.now = t
	}
}

func (e *Engine) run(until Time) {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	e.until = until
	// The hub: fire events until one dispatches a proc, then resume that
	// proc's carrier. It yields back the next proc to run — one it
	// dispatched while firing events in place — or nil once the queue
	// drains or the run limit is reached. A panic inside a proc reaches
	// this caller through next.
	for p := e.loop(); p != nil; p, _ = p.c.next() {
	}
	e.running = false
}

// loop fires events until the queue drains, the next event lies past the
// run limit, or an event dispatches a proc, and returns that proc (nil if
// none). The hub and parked or retired procs all run it; a proc that gets
// itself back continues in place with no switch at all, which makes a
// plain sleep-and-wake — the single most common blocking pattern — free
// of context switches when no other work intervenes.
//
// Staleness is the target's concern: a token left queued past its
// target's incarnation (a recycled proc or pooled record) mismatches the
// target's generation inside Complete and fires as a harmless no-op.
func (e *Engine) loop() *Proc {
	for {
		ev, ok := e.queue.pop(e.until)
		if !ok {
			return nil
		}
		e.now = ev.t
		e.events++
		ev.c.Target.Complete(ev.c, ev.t)
		if p := e.xfer; p != nil {
			e.xfer = nil
			e.cur = p
			return p
		}
	}
}

// dispatch marks p as the next owner of the execution token. It must only
// be called from event context; the event loop performs the actual
// handoff after the current callback returns.
func (e *Engine) dispatch(p *Proc) {
	if p.dead {
		return
	}
	if e.xfer != nil {
		panic(fmt.Sprintf("sim: two procs dispatched by one event (%s then %s at %v)", e.xfer.name, p.name, e.now))
	}
	e.xfer = p
}

// wake schedules p to resume at the current instant, after any events
// already queued for this instant (FIFO fairness).
func (e *Engine) wake(p *Proc) {
	e.atProc(e.now, p)
}

// BlockedProcs returns the names and park-states of procs that are
// currently blocked, sorted so diagnostics are stable run-to-run. After
// Run returns, a non-empty result usually indicates a deadlock or a
// daemon process awaiting shutdown.
func (e *Engine) BlockedProcs() []string {
	var out []string
	for _, p := range e.all {
		if !p.dead {
			out = append(out, p.name+" ["+p.parkState()+"]")
		}
	}
	sort.Strings(out)
	return out
}

// NumBlocked returns the number of currently blocked procs, excluding
// daemons (disk servers — procs spawned with GoDaemon).
// After a successful run it should be zero; anything else is a leaked
// transient proc.
func (e *Engine) NumBlocked() int {
	n := 0
	for _, p := range e.all {
		if !p.dead && !p.daemon {
			n++
		}
	}
	return n
}

// Close terminates all blocked procs and the suspended carriers of dead
// ones, in creation order, and discards pending events. It is safe to
// call multiple times. After Close the engine rejects new events and new
// procs. Close must not be called from inside the simulation. Closing
// an engine that was the slab list's last holder empties the list.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.queue.release()
	for _, p := range e.all {
		e.kill(p)
	}
	e.all, e.free = nil, nil
	slabs.count(-1, 0)
}

// kill unwinds one proc's body on its carrier and returns the carrier to
// the process-wide pool. Only a carrier that came back through its
// release point is pooled: one whose proc panicked has finished (next
// reports !ok), and one whose unwinding parked again is stuck mid-body.
func (e *Engine) kill(p *Proc) {
	p.killed = true
	c := p.c
	if _, ok := c.next(); ok && c.p == nil {
		putCarrier(c)
	}
}

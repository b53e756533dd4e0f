package sim

import (
	"fmt"
	"iter"
	"sync"
	"time"
)

// A Proc is a simulated process: a body function the engine runs on a
// coroutine (its carrier), scheduled cooperatively so that exactly one
// proc (or completion callback) runs at a time. Procs block by parking
// themselves on synchronization objects or by sleeping; control returns
// to the event loop, which advances virtual time.
//
// Proc objects are recycled: when a body function returns, the proc dies
// and goes onto the engine's free list, and the next Engine.Go re-arms it
// (same carrier) with a fresh body. Each death bumps the proc's
// generation. A wake-up is a completion token whose target is the proc
// (procToken) and which carries the generation it was scheduled for; a
// token queued for an earlier incarnation mismatches and fires as a
// harmless no-op, so a wake-up left behind by a dead-and-recycled proc
// can never resume the wrong incarnation.
type Proc struct {
	eng      *Engine
	c        *carrier // coroutine running this proc's incarnations
	name     string
	gen      uint64 // incarnation tag; bumped at every death
	state    string // park reason for non-sleep parks, for deadlock diagnosis
	asleep   bool   // parked in SleepUntil; deadline holds the wake time
	deadline Time
	fn       func(p *Proc) // body of the armed (or running) incarnation
	killed   bool
	dead     bool // no live incarnation (idle on the free list)
	daemon   bool // excluded from NumBlocked (dispatchers, disk servers...)
}

// procToken is a Proc seen as a completion target: the engine's
// dispatch token. It is unexported so that only the kernel can dispatch
// a proc; Proc itself has no Complete method.
type procToken Proc

// Complete dispatches the proc if the token belongs to its current
// incarnation.
func (t *procToken) Complete(c Completion, _ Time) {
	p := (*Proc)(t)
	if c.Gen == p.gen {
		p.eng.dispatch(p)
	}
}

// procKilled is panicked inside a proc's body when the engine shuts
// down; the carrier recovers it and is released back to the pool.
type procKilled struct{}

// A carrier is an iter.Pull coroutine that runs procs. It serves one
// proc from spawn until Engine.Close kills that proc; the body then
// unwinds, the carrier yields nil back to Close from its release point,
// and Close returns it to a process-wide free list for the next spawn on
// any engine. An iter.Pull coroutine costs about 11 heap allocations to
// create, so pooling is what keeps sweeps, the daemon and repeated runs
// from paying that once per proc per engine.
type carrier struct {
	p     *Proc                // proc being served; nil while released
	next  func() (*Proc, bool) // resume; returns the proc to run next, or nil
	yield func(*Proc) bool     // suspend, handing the hub the proc to run next
}

// carriers is the process-wide free list of released carriers. It is
// not a sync.Pool: a carrier the GC dropped from one would leak its
// suspended goroutine.
var carriers struct {
	sync.Mutex
	free []*carrier
}

// getCarrier takes a released carrier from the pool, or creates one.
func getCarrier() *carrier {
	carriers.Lock()
	if n := len(carriers.free); n > 0 {
		c := carriers.free[n-1]
		carriers.free[n-1] = nil
		carriers.free = carriers.free[:n-1]
		carriers.Unlock()
		return c
	}
	carriers.Unlock()
	c := new(carrier)
	// No stop function is kept: a carrier lives as long as the process,
	// suspended in the pool whenever no proc is using it.
	c.next, _ = iter.Pull(c.run)
	return c
}

// putCarrier returns a released carrier to the pool. Only the caller of
// next may do this, after the carrier yielded from its release point:
// a carrier that pooled itself could be resumed by another engine
// before it had suspended.
func putCarrier(c *carrier) {
	carriers.Lock()
	carriers.free = append(carriers.free, c)
	carriers.Unlock()
}

// run is the carrier's coroutine body: serve the proc it is lent to,
// release it at the kill, then wait to be lent again.
func (c *carrier) run(yield func(*Proc) bool) {
	c.yield = yield
	for {
		c.p.serve()
		c.p = nil // the release point kill checks for
		yield(nil)
	}
}

// Go spawns a new simulated process that starts at the current virtual
// time. The name appears in deadlock diagnostics. fn runs to completion
// unless the engine is closed first. The returned Proc is only valid for
// the lifetime of fn: once fn returns, the engine may recycle the object
// for a later Go.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, fn, false)
}

// GoDaemon is Go for procs that intentionally never exit, such as disk
// server loops. Daemons are excluded from NumBlocked, so "no procs
// blocked after the run" remains a meaningful leak check; they still
// appear in BlockedProcs.
func (e *Engine) GoDaemon(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, fn, true)
}

// GoNow is Go for a completion callback that must block: it starts fn
// on a proc within the current event, right after the callback returns
// and before any other event fires, instead of queueing a start token.
// It must be called from event context, and one event can start at
// most one proc this way (a second dispatch panics, naming both). A
// dead proc is reused first, so when the callback runs on the carrier
// of the proc that just died, fn continues on it with no switch.
func (e *Engine) GoNow(name string, fn func(p *Proc)) *Proc {
	if !e.running || e.cur != nil {
		panic("sim: GoNow(" + name + ") outside event context")
	}
	p := e.arm(name, fn, false)
	e.dispatch(p)
	return p
}

func (e *Engine) spawn(name string, fn func(p *Proc), daemon bool) *Proc {
	p := e.arm(name, fn, daemon)
	e.atProc(e.now, p) // start token: dispatches p when it fires
	return p
}

// arm readies a proc to run fn: a dead one from the free list, or a new
// one on a pooled carrier.
func (e *Engine) arm(name string, fn func(p *Proc), daemon bool) *Proc {
	if e.closed {
		// The engine rejects new work after Close; hand back an inert
		// dead proc so callers need no special case.
		return &Proc{eng: e, name: name, dead: true}
	}
	var p *Proc
	if n := len(e.free); n > 0 {
		p = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		p.dead = false
	} else {
		p = &Proc{eng: e, c: getCarrier()}
		p.c.p = p
		e.all = append(e.all, p)
	}
	p.name = name
	p.fn = fn
	p.daemon = daemon
	return p
}

// serve runs p's incarnations until the engine kills p. When a body
// returns, the proc retires but its carrier still holds the execution
// token, so it keeps firing events in place; if one of those events
// starts this proc's next incarnation (the engine recycled it), the
// carrier continues straight into the new body with no switch at all.
// A panic other than the kill propagates out of the carrier, and
// iter.Pull re-raises it in the Run caller.
func (p *Proc) serve() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); !ok {
				panic(r)
			}
		}
	}()
	e := p.eng
	for !p.killed {
		fn := p.fn
		p.fn = nil
		fn(p)
		p.retire()
		e.cur = nil // back in event context until the loop dispatches
		if q := e.loop(); q != p {
			p.c.yield(q)
		}
	}
}

// retire ends the current incarnation: the proc dies and joins the
// engine's free list. Bumping the generation invalidates any
// dispatch tokens still queued for the incarnation that just ended.
func (p *Proc) retire() {
	p.gen++
	p.dead = true
	p.state = ""
	p.asleep = false
	p.eng.free = append(p.eng.free, p)
}

// park blocks the calling proc until another party wakes it via
// Engine.wake. state describes what the proc is waiting for.
//
// The parking proc holds the execution token, so it keeps running the
// event loop in place. If the loop dispatches this very proc it returns
// with no switch; otherwise the carrier yields the dispatched proc (nil
// when the run ends) to the hub and resumes when it is dispatched again.
func (p *Proc) park(state string) {
	p.state = state
	e := p.eng
	e.cur = nil // back in event context until the loop dispatches
	if q := e.loop(); q != p {
		p.c.yield(q)
		if p.killed {
			panic(procKilled{})
		}
	}
	p.state = ""
	p.asleep = false
}

// parkState returns the human-readable reason the proc is blocked.
// Sleep deadlines are formatted lazily here rather than on every sleep.
func (p *Proc) parkState() string {
	if p.asleep {
		return fmt.Sprintf("sleep until %v", p.deadline)
	}
	return p.state
}

// Name returns the proc's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this proc runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Sleep suspends the proc for d of virtual time. Negative or zero d
// yields the processor for the current instant (other events at the same
// time run first).
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.SleepUntil(p.eng.now.Add(d))
}

// SleepUntil suspends the proc until absolute time t (or the current
// instant if t is in the past).
func (p *Proc) SleepUntil(t Time) {
	e := p.eng
	if t < e.now {
		t = e.now
	}
	e.atProc(t, p)
	p.deadline = t
	p.asleep = true
	p.park("")
}

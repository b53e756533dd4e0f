package sim

// ServicePool runs submitted work items on persistent service procs —
// the simulated analogue of an I/O server's resident thread pool. An
// idle worker parks on the pool; Submit hands it the next item and wakes
// it with a single dispatch token, exactly the cost of starting a
// freshly spawned proc, so a pooled server fires the same events at the
// same virtual times as one that spawns a handler per request.
//
// Submit never queues an item behind a busy worker: if no worker is
// idle, a new one is spawned (cheaply, through the engine's recycled-proc
// path). retain bounds only how many idle workers are parked for reuse;
// a worker finding the pool over that size when its item completes
// retires back to the engine's proc free list. The simulated cost model
// is therefore unchanged by pooling — callers still charge whatever
// per-request CPU (e.g. thread-creation time) the modeled system pays —
// while the host-level cost of a handler drops to one token wake.
//
// Like the rest of the kernel, a pool is single-threaded per engine and
// fully deterministic: idle workers are reused in LIFO order.
type ServicePool struct {
	eng       *Engine
	procName  string
	parkLabel string
	retain    int
	serve     func(p *Proc, item any)
	idle      []*svcWorker
	freeW     []*svcWorker // retired workers awaiting reuse (like Engine.free)
	workers   int          // live workers, busy + idle
}

// svcWorker is one persistent service thread: its proc and the handoff
// slot Submit fills before waking it. mainFn is the worker body bound
// once, so respawning a retired worker allocates nothing.
type svcWorker struct {
	pool   *ServicePool
	p      *Proc
	item   any
	mainFn func(p *Proc)
}

// NewServicePool returns a pool whose workers run serve once per
// submitted item. name is the diagnostic proc name shared by all
// workers; retain (minimum 1) is how many idle workers the pool keeps
// parked.
func NewServicePool(e *Engine, name string, retain int, serve func(p *Proc, item any)) *ServicePool {
	if retain < 1 {
		retain = 1
	}
	return &ServicePool{
		eng:       e,
		procName:  name,
		parkLabel: "svcpool " + name,
		retain:    retain,
		serve:     serve,
	}
}

// Submit hands item to an idle service proc, or spawns one if all are
// busy. It may be called from proc or event context; the item starts at
// the current instant, behind events already queued for it.
func (sp *ServicePool) Submit(item any) {
	if n := len(sp.idle); n > 0 {
		w := sp.idle[n-1]
		sp.idle[n-1] = nil
		sp.idle = sp.idle[:n-1]
		w.item = item
		sp.eng.wake(w.p)
		return
	}
	sp.workers++
	var w *svcWorker
	if n := len(sp.freeW); n > 0 { // growth reuses retired workers too
		w = sp.freeW[n-1]
		sp.freeW[n-1] = nil
		sp.freeW = sp.freeW[:n-1]
	} else {
		w = &svcWorker{pool: sp}
		w.mainFn = w.main
	}
	w.item = item
	sp.eng.Go(sp.procName, w.mainFn)
}

// main is the worker body: serve the handed item, then park idle (as a
// daemon, so leak checks ignore it) or retire if the pool is over its
// retained size.
func (w *svcWorker) main(p *Proc) {
	w.p = p
	sp := w.pool
	for {
		item := w.item
		w.item = nil
		start := sp.eng.now
		sp.serve(p, item)
		sp.eng.rec.PoolBusy(sp.procName, int64(start), int64(sp.eng.now))
		if sp.workers > sp.retain {
			sp.workers--
			sp.freeW = append(sp.freeW, w)
			return // proc goes back to the engine's free list
		}
		p.daemon = true
		sp.idle = append(sp.idle, w)
		p.park(sp.parkLabel)
		p.daemon = false
	}
}

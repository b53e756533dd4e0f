package sim

// Completion tokens are the kernel's one event shape: "call me back at
// time t" without a closure. A closure event would box one allocation
// per message — on message-heavy runs the dominant allocation source —
// and pin its captured environment to one heap, which is what would
// keep a future partitioned kernel from sharding the event queue. A
// Completion instead names a long-lived target object plus a small
// (kind, arg) payload, all carried by value inside the event record, so
// scheduling one allocates nothing. Proc dispatch is the same shape:
// its target is the proc itself (procToken).
//
// Targets that are recycled — procs, and pooled records such as
// netsim's in-flight messages, cluster's operation records and tcfs's
// request records — stamp their current generation into every token
// they hand out and bump the generation when the record is released to
// its arena (or the proc dies). A token that fires after its target was
// recycled mismatches and must be ignored — Complete implementations
// check c.Gen first. Targets that are never recycled (e.g. WaitGroup)
// ignore Gen entirely.

// CompletionTarget is an object completion tokens dispatch to. Complete
// runs in event context (never inside a Proc) at the token's scheduled
// time; implementations for pooled records must drop tokens whose Gen
// no longer matches the record's generation.
type CompletionTarget interface {
	Complete(c Completion, now Time)
}

// Completion is one schedulable completion token: Target receives the
// token, Gen pins it to the target's current incarnation, and Kind/Arg
// are payload the target interprets (typically a dispatch kind and an
// index or count). The zero value is "no completion"; schedulers and
// senders treat it as an absent callback.
type Completion struct {
	Target CompletionTarget
	Gen    uint64
	Kind   uint8
	Arg    int64
}

// Valid reports whether the completion names a target.
func (c Completion) Valid() bool { return c.Target != nil }

// Invoke fires the completion synchronously in the caller's context (a
// no-op for the zero Completion). Use it when the completing code is
// already running at the right instant and scheduling another event
// would perturb the event count.
func (c Completion) Invoke(now Time) {
	if c.Target != nil {
		c.Target.Complete(c, now)
	}
}

// CompletionFunc adapts a plain function to CompletionTarget for
// contexts where an allocation per callback is acceptable — tests and
// rare control-path messages. Hot paths should implement
// CompletionTarget on a pooled record instead.
type CompletionFunc func(now Time)

// Complete invokes the function.
func (f CompletionFunc) Complete(_ Completion, now Time) { f(now) }

// Callback wraps fn as a Completion (allocating the closure as usual).
func Callback(fn func(now Time)) Completion {
	return Completion{Target: CompletionFunc(fn)}
}

// Arena is a deterministic LIFO free list for per-engine record types:
// the allocation arena behind pooled messages, operation records, and
// request records. Get pops the most recently Put record, or carves a
// zero one from the current slab; Put returns a record for reuse. Reuse
// order is LIFO and the engine is single-threaded, so arena behavior is
// identical run to run. Callers own generation bumping: bump the
// record's generation in its release path *before* Put so stale
// completion tokens mismatch.
//
// Slabs grow geometrically from arenaMinSlab to arenaMaxSlab records, so
// a run that keeps thousands of records in flight makes one allocation
// per few hundred records, while a short run pays for a handful.
type Arena[T any] struct {
	free []*T
	slab []T // fresh zero records not yet handed out
	size int // length of the last slab
}

const (
	arenaMinSlab = 4
	arenaMaxSlab = 256
)

// Get returns a pooled record, or a fresh zero-valued one.
func (a *Arena[T]) Get() *T {
	if n := len(a.free); n > 0 {
		x := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		return x
	}
	if len(a.slab) == 0 {
		a.size = min(max(2*a.size, arenaMinSlab), arenaMaxSlab)
		a.slab = make([]T, a.size)
	}
	x := &a.slab[0]
	a.slab = a.slab[1:]
	return x
}

// Put returns x to the arena. The caller must have dropped references
// it does not own (and bumped the record's generation) first.
func (a *Arena[T]) Put(x *T) { a.free = append(a.free, x) }

// Package trace is the simulator's event-trace recorder: a flat,
// seq-ordered stream of typed instrumentation records that the sim
// kernel, the disk and network layers, and the file-system servers emit
// while a run executes. A trace answers the *temporal* question the
// end-of-run throughput tables cannot: what was every disk doing at
// every instant, how deep were the queues, where did requests wait.
// That is the paper's central mechanism claim — disk-directed I/O keeps
// every disk continuously busy while traditional caching leaves them
// idle between cache misses — made observable.
//
// The recorder is strictly passive: it appends records to a slice and
// never touches the event queue, so an instrumented run fires the same
// events at the same virtual times as an uninstrumented one (pinned by
// TestTracingDoesNotPerturbRun). All record methods are nil-safe no-ops,
// so instrumentation points cost one nil check when tracing is off —
// no allocations, no closures, no interface boxing. Times are plain
// int64 nanoseconds of virtual time (sim.Time's representation) so this
// package has no simulator dependency and the kernel itself can import
// it.
//
// Because the simulation kernel is single-threaded and deterministic, a
// trace is a pure function of the run's Config: identical seeds yield
// byte-identical JSONL streams (pinned by TestTraceDeterministic). A
// Recorder must be attached to at most one run at a time — it is not
// safe for concurrent use from a parallel Runner pool.
package trace

// Kind classifies one trace event.
type Kind uint8

// Event kinds. Interval kinds carry both T (start) and End; point kinds
// carry only T.
const (
	// KindDiskService is one disk request's foreground service interval
	// [T, End]: Node is the disk, Write the direction, Bytes the media
	// transfer size, Depth the number of requests still queued when
	// service began. The gaps between a disk's service intervals are its
	// idle time; their sum over the run is its utilization.
	KindDiskService Kind = iota
	// KindDiskQueue samples a disk's queue depth (Depth) when a request
	// is submitted.
	KindDiskQueue
	// KindDiskSeek is an arm movement of Cyls cylinders on disk Node.
	KindDiskSeek
	// KindReqStart marks file-system request ID arriving at server Node
	// (Write mirrors the request direction, Bytes its payload size).
	KindReqStart
	// KindReqEnd marks request ID completing at server Node; T is the
	// matching start time and End the completion, so End-T is the
	// server-side latency.
	KindReqEnd
	// KindPoolBusy is one handler thread's busy interval serving one
	// file-system request (or, in tcfs, one prefetch). Node names the
	// server's handler pool: "tc-svc:IOPn" from tcfs, "dd-work:IOPn"
	// from core.
	KindPoolBusy
	// KindBuffer samples buffer/cache occupancy at Node: Bytes holds the
	// occupied frame count, Depth the capacity.
	KindBuffer
	// KindNetMsg is one interconnect message from Node to Peer carrying
	// Bytes payload bytes, stamped at send time.
	KindNetMsg
	// KindFault is one injected fault at component Node; Peer carries
	// the fault class ("disk-err", "msg-drop", "net-spike").
	KindFault
	// KindRetry is one bounded-retry backoff interval at server Node:
	// [T, End] spans the modeled backoff sleep before resubmission
	// number Depth.
	KindRetry
)

// kindNames are the stable external names used in JSONL and CSV.
var kindNames = [...]string{
	KindDiskService: "disk",
	KindDiskQueue:   "queue",
	KindDiskSeek:    "seek",
	KindReqStart:    "req-start",
	KindReqEnd:      "req-end",
	KindPoolBusy:    "pool",
	KindBuffer:      "buffer",
	KindNetMsg:      "msg",
	KindFault:       "fault",
	KindRetry:       "retry",
}

// String returns the kind's stable external name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one trace record. The fields are a flat union over all
// kinds; each Kind documents which fields it populates. Node and Peer
// are component names as the simulator labels them ("d3", "IOP0",
// "tc-svc:IOP2"); instrumentation sites pass preexisting strings so
// recording never allocates name storage.
type Event struct {
	Seq   int64  // 0-based record order (deterministic run order)
	Kind  Kind   // what happened
	T     int64  // virtual time, ns (interval start for interval kinds)
	End   int64  // interval end, ns (0 for point kinds)
	Node  string // primary component
	Peer  string // counterpart component (KindNetMsg destination)
	Write bool   // request direction, where applicable
	Bytes int64  // payload/transfer size, or occupancy count (KindBuffer)
	Depth int64  // queue depth or capacity, where applicable
	Cyls  int64  // cylinders crossed (KindDiskSeek)
	ID    int64  // request id (KindReqStart/KindReqEnd)
}

// Recorder accumulates trace events for one run. The zero value is
// ready to use; a nil *Recorder is a valid "tracing off" recorder whose
// record methods all no-op.
type Recorder struct {
	events []Event
	disks  []string // registered disks, in construction order
	mask   uint32   // kind-filter bitmask; 0 records every kind
}

// RegisterDisk declares a disk before any activity, so a drive that
// stays completely idle still gets a (zero-utilization) timeline row
// and counts in MeanDiskUtilization — without registration an idle
// disk would silently vanish from the derived views and overstate the
// mean. Registration is metadata, not an event: it does not appear in
// the JSONL/CSV streams.
func (r *Recorder) RegisterDisk(name string) {
	if r == nil {
		return
	}
	r.disks = append(r.disks, name)
}

// New returns an empty enabled recorder.
func New() *Recorder { return &Recorder{} }

// NewFiltered returns a recorder that retains only the listed event
// kinds and discards the rest at the instrumentation point — the cheap
// way to collect one derived view (say, request latencies from
// KindReqEnd) without holding the full event stream of a long run.
// With no kinds it behaves exactly like New.
func NewFiltered(kinds ...Kind) *Recorder {
	r := &Recorder{}
	for _, k := range kinds {
		r.mask |= 1 << k
	}
	return r
}

// keeps reports whether the recorder retains events of kind k.
func (r *Recorder) keeps(k Kind) bool {
	return r != nil && (r.mask == 0 || r.mask&(1<<k) != 0)
}

// Enabled reports whether the recorder actually records (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Events returns the recorded events in seq order. The slice is owned
// by the recorder; callers must not modify it.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// add appends one record, stamping its seq.
func (r *Recorder) add(e Event) {
	e.Seq = int64(len(r.events))
	r.events = append(r.events, e)
}

// DiskService records one disk request's service interval.
func (r *Recorder) DiskService(disk string, start, end int64, write bool, bytes int64, depth int) {
	if !r.keeps(KindDiskService) {
		return
	}
	r.add(Event{Kind: KindDiskService, T: start, End: end, Node: disk, Write: write, Bytes: bytes, Depth: int64(depth)})
}

// DiskQueue records a disk's queue depth after a request was submitted.
func (r *Recorder) DiskQueue(disk string, t int64, depth int) {
	if !r.keeps(KindDiskQueue) {
		return
	}
	r.add(Event{Kind: KindDiskQueue, T: t, Node: disk, Depth: int64(depth)})
}

// DiskSeek records one arm movement.
func (r *Recorder) DiskSeek(disk string, t, cyls int64) {
	if !r.keeps(KindDiskSeek) {
		return
	}
	r.add(Event{Kind: KindDiskSeek, T: t, Node: disk, Cyls: cyls})
}

// RequestStart records a file-system request arriving at a server.
func (r *Recorder) RequestStart(node string, id, t int64, write bool, bytes int64) {
	if !r.keeps(KindReqStart) {
		return
	}
	r.add(Event{Kind: KindReqStart, T: t, Node: node, ID: id, Write: write, Bytes: bytes})
}

// RequestEnd records a file-system request completing at a server;
// start is the matching RequestStart time, so the event carries the
// full latency interval.
func (r *Recorder) RequestEnd(node string, id, start, end int64) {
	if !r.keeps(KindReqEnd) {
		return
	}
	r.add(Event{Kind: KindReqEnd, T: start, End: end, Node: node, ID: id})
}

// PoolBusy records one handler thread's busy interval on pool.
func (r *Recorder) PoolBusy(pool string, start, end int64) {
	if !r.keeps(KindPoolBusy) {
		return
	}
	r.add(Event{Kind: KindPoolBusy, T: start, End: end, Node: pool})
}

// Buffer samples buffer/cache occupancy (used of capacity) at a node.
func (r *Recorder) Buffer(node string, t int64, used, capacity int) {
	if !r.keeps(KindBuffer) {
		return
	}
	r.add(Event{Kind: KindBuffer, T: t, Node: node, Bytes: int64(used), Depth: int64(capacity)})
}

// NetMsg records one interconnect message at send time.
func (r *Recorder) NetMsg(src, dst string, t, bytes int64) {
	if !r.keeps(KindNetMsg) {
		return
	}
	r.add(Event{Kind: KindNetMsg, T: t, Node: src, Peer: dst, Bytes: bytes})
}

// Fault records one injected fault at a component; class is the stable
// fault label ("disk-err", "msg-drop", "net-spike"), carried in Peer.
func (r *Recorder) Fault(node string, t int64, class string) {
	if !r.keeps(KindFault) {
		return
	}
	r.add(Event{Kind: KindFault, T: t, Node: node, Peer: class})
}

// Retry records one bounded-retry backoff interval at a server: [start,
// end] spans the modeled backoff sleep before resubmission number
// attempt (1-based).
func (r *Recorder) Retry(node string, start, end int64, attempt int) {
	if !r.keeps(KindRetry) {
		return
	}
	r.add(Event{Kind: KindRetry, T: start, End: end, Node: node, Depth: int64(attempt)})
}

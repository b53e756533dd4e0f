package disk

import (
	"errors"
	"fmt"
	"time"

	"ddio/internal/fault"
	"ddio/internal/sim"
	"ddio/internal/trace"
)

// ErrTransient reports a request that the drive failed transiently —
// the mechanical model charged the drive-internal recovery time but no
// data moved. Injected only when fault injection is active; a resubmit
// of the same request may succeed.
var ErrTransient = errors.New("disk: transient request failure")

// Request is one I/O command issued to a disk. Data belongs to the
// caller and must hold Count*SectorSize bytes: a read fills it at
// completion, a write's bytes go to the drive's store when the drive
// serves it (so Data must stay unchanged until OnDone).
// OnDone, if set, is invoked when the drive reports completion — for
// writes this is when the data is accepted into the drive's write-behind
// buffer, matching an "immediate report" drive; use Flush to wait for
// media durability.
type Request struct {
	Write  bool
	LBN    int64 // starting sector
	Count  int64 // sectors
	Data   []byte
	OnDone func(t sim.Time)
	// Err is set (to ErrTransient) before OnDone when fault injection
	// failed the request; Data is untouched and no media state changed.
	Err error

	cyl int64
	enq sim.Time
}

// Metrics aggregates per-disk activity counters.
type Metrics struct {
	Reads         int64
	Writes        int64
	CacheHits     int64 // reads served entirely from the read-ahead buffer
	CacheStreams  int64 // reads that waited on the ongoing read-ahead stream
	SeekCount     int64
	SeekCylinders int64
	SectorsRead   int64
	SectorsWrite  int64
	QueueWait     time.Duration // sum of time requests spent queued
	Busy          time.Duration // foreground service time (approximate)
	Errors        int64         // transient failures injected on this disk
}

// Disk simulates one drive: a server process draining a request queue
// through the mechanical model, a read-ahead cache, a write-behind
// buffer, and an optional shared bus on the host side of the transfer.
type Disk struct {
	Name string
	Spec *Spec

	eng   *sim.Engine
	bus   *sim.Pipe
	g     *geom
	cache *racache
	wb    wcache

	curCyl  int64
	queue   []*Request
	queued  *sim.Cond
	m       Metrics
	pages   map[int64][]byte  // stored bytes by page index, nil until the first (see storage.go)
	backing Backing           // what unstored sectors hold, nil for zeros
	unit    int               // the disk's index in its backing
	rec     *trace.Recorder   // event tracing, nil when disabled
	faults  *fault.DiskFaults // fault injection, nil when disabled
}

// New creates a disk and starts its server process on the engine. bus is
// the I/O bus the disk shares with the other drives of its IOP: a
// fixed-bandwidth, first-come-first-served pipe with a per-transfer
// arbitration overhead (the paper's Table 1: one 10 MB/s SCSI bus per
// IOP). With more than a few disks per bus the bus, not the disks,
// becomes the bottleneck — the effect Figures 6–8 explore. bus may be
// nil to model a drive with an uncontended, infinitely fast channel.
func New(e *sim.Engine, name string, spec *Spec, bus *sim.Pipe) *Disk {
	d := &Disk{
		Name: name,
		Spec: spec,
		eng:  e,
		bus:  bus,
		g:    newGeom(spec),
		rec:  e.Recorder(),
	}
	d.rec.RegisterDisk(name)
	d.cache = newRACache(d.g)
	d.wb = wcache{g: d.g}
	d.queued = sim.NewCond(e, "disk "+name)
	e.GoDaemon("disk:"+name, d.run)
	return d
}

// Metrics returns a copy of the disk's activity counters.
func (d *Disk) Metrics() Metrics { return d.m }

// SetFaults attaches a fault-injection handle. nil (the default) keeps
// the drive healthy and the service path bit-identical to a build
// without fault injection. Call before the run starts.
func (d *Disk) SetFaults(f *fault.DiskFaults) { d.faults = f }

// Submit enqueues a request; the server process serves the queue in
// arrival order. May be called from proc or event context.
func (d *Disk) Submit(r *Request) {
	d.g.check(r.LBN, r.Count)
	if int64(len(r.Data)) != r.Count*int64(d.Spec.SectorSize) {
		panic(fmt.Sprintf("disk %s: request of %d sectors with %d data bytes", d.Name, r.Count, len(r.Data)))
	}
	r.cyl, _, _ = d.g.decompose(r.LBN)
	r.enq = d.eng.Now()
	d.queue = append(d.queue, r)
	d.rec.DiskQueue(d.Name, int64(r.enq), len(d.queue))
	d.queued.Signal()
}

// trySync submits a read into buf or a write of buf at sector lbn and
// blocks p until the drive completes it, returning the request's
// failure (ErrTransient under fault injection).
func (d *Disk) trySync(p *sim.Proc, write bool, lbn int64, buf []byte) error {
	name := "diskread"
	if write {
		name = "diskwrite"
	}
	done := sim.NewWaitGroup(d.eng, name, 1)
	r := &Request{Write: write, LBN: lbn, Count: int64(len(buf) / d.Spec.SectorSize), Data: buf,
		OnDone: func(sim.Time) { done.Done() }}
	d.Submit(r)
	done.Wait(p)
	return r.Err
}

// ReadSync fills dst from sector lbn on, blocking p until the read
// completes. A failed request panics: callers without a retry loop must
// not silently read nothing, and without fault injection requests
// cannot fail. Servers that retry use Retrier.Do instead.
func (d *Disk) ReadSync(p *sim.Proc, lbn int64, dst []byte) {
	if err := d.trySync(p, false, lbn, dst); err != nil {
		panic(fmt.Sprintf("disk %s: unretried read failure: %v", d.Name, err))
	}
}

// WriteSync submits a write and blocks p until the drive accepts it,
// panicking on an unretried failure (see ReadSync).
func (d *Disk) WriteSync(p *sim.Proc, lbn int64, data []byte) {
	if err := d.trySync(p, true, lbn, data); err != nil {
		panic(fmt.Sprintf("disk %s: unretried write failure: %v", d.Name, err))
	}
}

// RetryCounts tallies one server's resubmissions of transiently failed
// disk requests.
type RetryCounts struct {
	DiskRetries   int64 // disk-request resubmissions after transient failures
	DiskRecovered int64 // failed requests that a retry eventually completed
	DiskLost      int64 // requests still failing after the retry budget
}

// Retrier is a file-system server's bounded-retry policy for its
// synchronous disk requests.
type Retrier struct {
	Policy fault.RetryPolicy
	Counts *RetryCounts    // where resubmissions and outcomes are tallied
	Rec    *trace.Recorder // retry spans, nil when tracing is off
	Node   string          // the server's trace label
}

// Do reads into buf (or writes buf) at sector lbn of d, blocking p. A
// transient failure sleeps the policy's doubling backoff in simulated
// time and resubmits, up to Policy.Limit times. Exhaustion is counted
// as a lost request and returned; the experiment layer reports it as a
// typed failure, never silent loss. A lost read leaves buf untouched.
func (rt *Retrier) Do(p *sim.Proc, d *Disk, write bool, lbn int64, buf []byte) error {
	err := d.trySync(p, write, lbn, buf)
	for attempt := 1; err != nil && attempt <= rt.Policy.Limit; attempt++ {
		rt.Counts.DiskRetries++
		t0 := p.Now()
		p.Sleep(rt.Policy.BackoffFor(attempt))
		rt.Rec.Retry(rt.Node, int64(t0), int64(p.Now()), attempt)
		if err = d.trySync(p, write, lbn, buf); err == nil {
			rt.Counts.DiskRecovered++
		}
	}
	if err != nil {
		rt.Counts.DiskLost++
	}
	return err
}

// Flush blocks p until the write-behind buffer has drained to media and
// the request queue is empty.
func (d *Disk) Flush(p *sim.Proc) {
	for len(d.queue) > 0 {
		// Wait for the queue to drain by polling at the next service
		// completion; simplest is to enqueue a zero-length read barrier.
		done := sim.NewWaitGroup(d.eng, "diskflush", 1)
		d.Submit(&Request{LBN: 0, Count: 0, OnDone: func(sim.Time) { done.Done() }})
		done.Wait(p)
	}
	d.drainWrites(p)
}

// run is the drive's server process.
func (d *Disk) run(p *sim.Proc) {
	for {
		for len(d.queue) == 0 {
			d.queued.Wait(p)
		}
		r := d.queue[0]
		d.queue = append(d.queue[:0], d.queue[1:]...)
		d.m.QueueWait += time.Duration(p.Now() - r.enq)
		d.serve(p, r)
	}
}

func (d *Disk) serve(p *sim.Proc, r *Request) {
	start := p.Now()
	waiting := len(d.queue) // requests still queued behind this one
	if r.Count == 0 {       // barrier request used by Flush
		if r.OnDone != nil {
			r.OnDone(p.Now())
		}
		return
	}
	p.Sleep(d.Spec.ControllerOverhead)
	if d.faults.FailRequest() {
		// Transient failure: the drive burns its internal recovery time
		// and reports the error; no data moves, no media state changes.
		p.Sleep(d.faults.ErrorLatency())
		r.Err = ErrTransient
		d.m.Errors++
		d.m.Busy += time.Duration(p.Now() - start)
		d.rec.Fault(d.Name, int64(start), "disk-err")
		d.rec.DiskService(d.Name, int64(start), int64(p.Now()), r.Write, 0, waiting)
		if r.OnDone != nil {
			r.OnDone(p.Now())
		}
		return
	}
	if r.Write {
		d.serveWrite(p, r)
	} else {
		d.serveRead(p, r)
	}
	if extra := d.faults.StragglerExtra(start, p.Now()); extra > 0 {
		p.Sleep(extra)
	}
	d.m.Busy += time.Duration(p.Now() - start)
	d.rec.DiskService(d.Name, int64(start), int64(p.Now()), r.Write,
		r.Count*int64(d.Spec.SectorSize), waiting)
	if r.OnDone != nil {
		r.OnDone(p.Now())
	}
}

func (d *Disk) serveRead(p *sim.Proc, r *Request) {
	d.m.Reads++
	d.m.SectorsRead += r.Count
	// The media must be done with buffered writes before it can serve
	// reads (no internal reordering across the write buffer).
	d.drainWrites(p)
	if ready, ok := d.cache.serveRead(p.Now(), r.LBN, r.Count); ok {
		if ready > p.Now() {
			d.m.CacheStreams++
			p.SleepUntil(ready)
		} else {
			d.m.CacheHits++
		}
		d.curCyl, _, _ = d.g.decompose(d.cache.mediaAt - 1)
	} else {
		d.countSeek(r.cyl)
		end, endCyl := d.g.access(d.curCyl, p.Now(), r.LBN, r.Count)
		p.SleepUntil(end)
		d.curCyl = endCyl
		d.cache.startStream(r.LBN, r.LBN+r.Count, end)
	}
	if d.bus != nil {
		d.bus.Use(p, int(r.Count)*d.Spec.SectorSize)
	}
	d.ReadData(r.LBN, r.Data)
}

func (d *Disk) serveWrite(p *sim.Proc, r *Request) {
	d.m.Writes++
	d.m.SectorsWrite += r.Count
	if d.bus != nil {
		d.bus.Use(p, int(r.Count)*d.Spec.SectorSize)
	}
	d.WriteData(r.LBN, r.Data)
	if d.cache.overlaps(r.LBN, r.Count) {
		d.cache.invalidate()
	} else {
		d.cache.freeze(p.Now()) // the media is about to leave the read stream
	}
	d.acceptWrite(p, r.LBN, r.Count)
}

func (d *Disk) countSeek(toCyl int64) {
	if toCyl != d.curCyl {
		d.m.SeekCount++
		d.m.SeekCylinders += abs64(toCyl - d.curCyl)
		d.rec.DiskSeek(d.Name, int64(d.eng.Now()), abs64(toCyl-d.curCyl))
	}
}

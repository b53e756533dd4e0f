package sim

import "time"

// Pipe models a serially-shared, fixed-bandwidth resource: a SCSI bus, a
// network interface, or a CPU executing file-system software. Users
// reserve the pipe for a byte count and/or a fixed duration; reservations
// are granted first-come-first-served with no preemption, so the pipe
// naturally models queueing delay under contention.
//
// A Pipe also accumulates total busy time so experiments can report
// utilization.
type Pipe struct {
	eng       *Engine
	name      string
	nsPerByte float64
	perUse    time.Duration
	freeAt    Time
	busy      time.Duration
	uses      int64
}

// NewPipe returns a pipe that moves bytesPerSec bytes per second and
// charges perUse of fixed setup time on every reservation. bytesPerSec of
// zero means the pipe carries no per-byte cost (a pure CPU or latency
// resource).
func NewPipe(e *Engine, name string, bytesPerSec float64, perUse time.Duration) *Pipe {
	p := &Pipe{eng: e, name: name, perUse: perUse}
	if bytesPerSec > 0 {
		p.nsPerByte = 1e9 / bytesPerSec
	}
	return p
}

// Name returns the pipe's diagnostic name.
func (pp *Pipe) Name() string { return pp.name }

// TransferTime returns the service time (excluding queueing) for n bytes.
func (pp *Pipe) TransferTime(n int) time.Duration {
	return pp.perUse + time.Duration(float64(n)*pp.nsPerByte)
}

// Reserve books the pipe for n bytes starting no earlier than now,
// returning the reservation's start and end times. The pipe is busy until
// end; later reservations queue behind it.
func (pp *Pipe) Reserve(n int) (start, end Time) {
	return pp.ReserveFor(pp.TransferTime(n))
}

// ReserveFor books the pipe for an explicit duration (used to charge CPU
// costs that are not byte-proportional). The perUse overhead is NOT added.
func (pp *Pipe) ReserveFor(d time.Duration) (start, end Time) {
	start = pp.eng.now
	if pp.freeAt > start {
		start = pp.freeAt
	}
	end = start.Add(d)
	pp.freeAt = end
	pp.busy += d
	pp.uses++
	return start, end
}

// Use reserves the pipe for n bytes and sleeps the calling proc until the
// reservation completes.
func (pp *Pipe) Use(p *Proc, n int) {
	_, end := pp.Reserve(n)
	p.SleepUntil(end)
}

// UseFor reserves the pipe for duration d and sleeps the calling proc
// until the reservation completes.
func (pp *Pipe) UseFor(p *Proc, d time.Duration) {
	_, end := pp.ReserveFor(d)
	p.SleepUntil(end)
}

// Busy returns accumulated busy time.
func (pp *Pipe) Busy() time.Duration { return pp.busy }

// Uses returns the number of reservations made.
func (pp *Pipe) Uses() int64 { return pp.uses }

// Utilization returns busy time as a fraction of the interval [0, at].
func (pp *Pipe) Utilization(at Time) float64 {
	if at <= 0 {
		return 0
	}
	return float64(pp.busy) / float64(at)
}

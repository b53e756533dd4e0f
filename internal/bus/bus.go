// Package bus models the shared I/O bus between an I/O processor and its
// disks: a fixed-bandwidth, first-come-first-served channel with a small
// per-transfer arbitration/selection overhead (the paper's Table 1: one
// 10 MB/s SCSI bus per IOP). With more than a few disks per bus, the bus
// — not the disks — becomes the bottleneck, which is exactly the effect
// Figures 6–8 of the paper explore.
package bus

import (
	"time"

	"ddio/internal/sim"
)

// Bus is a shared bandwidth resource.
type Bus struct {
	pipe *sim.Pipe
}

// New returns a bus moving bytesPerSec with perTransfer fixed overhead
// charged on every transaction.
func New(e *sim.Engine, name string, bytesPerSec float64, perTransfer time.Duration) *Bus {
	return &Bus{pipe: sim.NewPipe(e, name, bytesPerSec, perTransfer)}
}

// Transfer moves n bytes across the bus, blocking p for queueing plus
// service time.
func (b *Bus) Transfer(p *sim.Proc, n int) { b.pipe.Use(p, n) }

// TransferTime returns the uncontended service time for n bytes.
func (b *Bus) TransferTime(n int) time.Duration { return b.pipe.TransferTime(n) }

// Busy returns the accumulated busy time.
func (b *Bus) Busy() time.Duration { return b.pipe.Busy() }

// Utilization returns busy time as a fraction of [0, at].
func (b *Bus) Utilization(at sim.Time) float64 { return b.pipe.Utilization(at) }

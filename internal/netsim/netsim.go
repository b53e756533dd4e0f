// Package netsim models the multiprocessor interconnect: a 2-D
// bidirectional torus with wormhole routing, per Table 1 of the paper
// (200·10⁶ bytes/s links, 20 ns per router). Because wormhole messages
// pipeline through the fabric, end-to-end time is modeled as source-NIC
// occupancy (DMA setup + bytes at link bandwidth), plus per-hop router
// latency and a small seeded jitter, plus destination-NIC occupancy
// overlapping the source's. NICs are first-come-first-served bandwidth
// pipes, so senders and receivers contend realistically at the endpoints;
// interior-link contention is not modeled (the paper's workloads are
// endpoint-bound).
package netsim

import (
	"strconv"
	"time"

	"ddio/internal/fault"
	"ddio/internal/sim"
	"ddio/internal/trace"
)

// Config holds interconnect parameters.
type Config struct {
	Width, Height int           // torus dimensions
	LinkBandwidth float64       // bytes per second per link direction
	RouterDelay   time.Duration // per hop
	DMASetup      time.Duration // per message, charged at each NIC
	HeaderBytes   int           // protocol header added to every message
	JitterMax     time.Duration // uniform [0, JitterMax) added to wire time
}

// DefaultConfig returns the paper's Table 1 interconnect: a 6×6 torus of
// 200 MB/s bidirectional links with 20 ns routers.
func DefaultConfig() Config {
	return Config{
		Width:         6,
		Height:        6,
		LinkBandwidth: 200e6,
		RouterDelay:   20 * time.Nanosecond,
		DMASetup:      1 * time.Microsecond,
		HeaderBytes:   32,
		JitterMax:     2 * time.Microsecond,
	}
}

// Network is one interconnect instance.
type Network struct {
	eng    *sim.Engine
	cfg    Config
	nics   []nic
	rng    *sim.Rand
	rec    *trace.Recorder  // event tracing, nil when disabled
	faults *fault.NetFaults // fault injection, nil when disabled

	msgArena sim.Arena[message] // in-flight message records

	msgs  int64
	bytes int64
}

type nic struct {
	in, out *sim.Pipe
	name    string // endpoint label in traces ("n4", or the node name)
}

// New builds a network with capacity for nNodes endpoints. If the
// configured torus is too small for nNodes it is grown (keeping it as
// square as possible), so sensitivity experiments can exceed 36 nodes.
func New(e *sim.Engine, cfg Config, nNodes int, rng *sim.Rand) *Network {
	for cfg.Width*cfg.Height < nNodes {
		if cfg.Width <= cfg.Height {
			cfg.Width++
		} else {
			cfg.Height++
		}
	}
	n := &Network{eng: e, cfg: cfg, rng: rng.Stream("netjitter"), rec: e.Recorder()}
	n.nics = make([]nic, nNodes)
	for i := range n.nics {
		n.nics[i] = nic{
			in:   sim.NewPipe(e, "nic-in", cfg.LinkBandwidth, cfg.DMASetup),
			out:  sim.NewPipe(e, "nic-out", cfg.LinkBandwidth, cfg.DMASetup),
			name: "n" + strconv.Itoa(i),
		}
	}
	return n
}

// SetFaults attaches a fault-injection handle for message loss and
// latency spikes. nil (the default) keeps the fabric lossless and the
// send path bit-identical to a build without fault injection. Call
// before the run starts.
func (n *Network) SetFaults(f *fault.NetFaults) { n.faults = f }

// SetNodeName labels endpoint id in traces (the machine builder passes
// processor names like "CP3"/"IOP0" so per-link trace totals read in
// machine terms rather than raw NIC indices).
func (n *Network) SetNodeName(id int, name string) { n.nics[id].name = name }

// Config returns the (possibly grown) configuration in use.
func (n *Network) Config() Config { return n.cfg }

// Hops returns the minimal routing distance between nodes a and b on the
// torus (Manhattan distance with wraparound), counting one router at the
// destination for a == b handled as zero.
func (n *Network) Hops(a, b int) int {
	if a == b {
		return 0
	}
	w := n.cfg.Width
	ax, ay := a%w, a/w
	bx, by := b%w, b/w
	dx := wrapDist(ax, bx, w)
	dy := wrapDist(ay, by, n.cfg.Height)
	return dx + dy
}

func wrapDist(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}

// message is one in-flight transmission, pooled on the network's arena.
// It is the completion target for its own fabric events: the head-flit
// arrival (msgHead) and, under fault injection, its retransmissions
// (msgResend) — a dropped message re-enqueues the same record instead of
// capturing its state in a retry closure. The record is released back to
// the arena when the head flit commits the destination NIC; deliver (a
// token, copied by value into the inEnd event) is the only thing that
// outlives it. gen is bumped at release so any token queued against a
// previous incarnation drops as a no-op.
type message struct {
	n        *Network
	gen      uint64
	a, b     int
	wire     int
	outStart sim.Time
	outEnd   sim.Time
	deliver  sim.Completion
}

// Message token kinds.
const (
	msgHead   uint8 = iota + 1 // head flit arrives at the destination NIC
	msgResend                  // resend timeout expired; retransmit
)

func (m *message) token(kind uint8) sim.Completion {
	return sim.Completion{Target: m, Gen: m.gen, Kind: kind}
}

// Complete dispatches one fabric event for this message.
func (m *message) Complete(c sim.Completion, now sim.Time) {
	if c.Gen != m.gen {
		return
	}
	n := m.n
	switch c.Kind {
	case msgHead:
		// Wormhole pipelining: the destination NIC streams the body
		// concurrently with the source NIC, finishing at inEnd.
		_, inEnd := n.nics[m.b].in.Reserve(m.wire)
		n.eng.AtCompletion(inEnd, m.deliver)
		m.release()
	case msgResend:
		m.outStart, m.outEnd = n.nics[m.a].out.Reserve(m.wire)
		n.faults.CountResend()
		n.transmit(m)
	}
}

// release returns the record to the arena, invalidating queued tokens.
func (m *message) release() {
	m.gen++
	m.deliver = sim.Completion{}
	m.n.msgArena.Put(m)
}

// Send transmits size payload bytes from node a to node b. onSent, if
// valid, fires when the source NIC finishes (the sender's buffer is
// reusable); deliver, if valid, fires when the last byte arrives at b.
// Both are completion tokens fired in event context; the zero Completion
// means "no callback". Send may be called from proc or event context,
// never blocks the caller, and allocates nothing on a warm network.
func (n *Network) Send(a, b, size int, onSent, deliver sim.Completion) {
	n.msgs++
	n.bytes += int64(size)
	n.rec.NetMsg(n.nics[a].name, n.nics[b].name, int64(n.eng.Now()), int64(size))
	wire := size + n.cfg.HeaderBytes
	outStart, outEnd := n.nics[a].out.Reserve(wire)
	if onSent.Valid() {
		n.eng.AtCompletion(outEnd, onSent)
	}
	m := n.msgArena.Get()
	m.n = n
	m.a, m.b, m.wire = a, b, wire
	m.outStart, m.outEnd = outStart, outEnd
	m.deliver = deliver
	n.transmit(m)
}

// transmit models one fabric traversal of a message already committed to
// its source's out NIC over [outStart, outEnd]. Under fault injection
// the traversal may suffer a latency spike or be dropped entirely; a
// drop retransmits after the resend timeout, re-occupying the source NIC
// for the full message (the retransmission redraws its own fault fate,
// so a message can be dropped repeatedly — each loss costs another
// timeout).
func (n *Network) transmit(m *message) {
	lat := sim.Time(n.cfg.RouterDelay) * sim.Time(n.Hops(m.a, m.b))
	if n.cfg.JitterMax > 0 {
		lat += sim.Time(n.rng.Int63n(int64(n.cfg.JitterMax)))
	}
	if spike := n.faults.Spike(); spike > 0 {
		n.rec.Fault(n.nics[m.a].name, int64(n.eng.Now()), "net-spike")
		lat += sim.Time(spike)
	}
	if n.faults.DropMsg() {
		n.rec.Fault(n.nics[m.a].name, int64(n.eng.Now()), "msg-drop")
		n.eng.AtCompletion(m.outEnd.Add(n.faults.ResendTimeout()), m.token(msgResend))
		return
	}
	// The head flit reaches the destination lat after it left the source.
	headArrive := m.outStart + lat
	n.eng.AtCompletion(headArrive, m.token(msgHead))
}

// Messages returns the number of messages sent.
func (n *Network) Messages() int64 { return n.msgs }

// Bytes returns total payload bytes carried.
func (n *Network) Bytes() int64 { return n.bytes }

// Package cluster assembles the simulated MIMD machine: compute
// processors (CPs) and I/O processors (IOPs) placed on the interconnect,
// each with a CPU resource for file-system software costs, a mailbox for
// protocol messages, and — for CPs — a user memory buffer that remote
// Memput/Memget DMA operations address directly.
package cluster

import (
	"fmt"
	"time"

	"ddio/internal/fault"
	"ddio/internal/netsim"
	"ddio/internal/sim"
)

// Kind distinguishes compute processors from I/O processors.
type Kind int

// Node kinds.
const (
	CP Kind = iota
	IOP
)

func (k Kind) String() string {
	if k == CP {
		return "CP"
	}
	return "IOP"
}

// Node is one processor.
type Node struct {
	Kind  Kind
	Index int // index within its kind
	NetID int // interconnect address

	// CPU serializes file-system software costs on this processor
	// (50 MHz RISC in the paper; we charge calibrated absolute times).
	CPU *sim.Pipe
	// Mail receives protocol messages that need software handling.
	Mail *sim.Mailbox
	// Mem is the node's directly-addressable memory for DMA transfers
	// (used on CPs as the application buffer).
	Mem []byte
}

func (n *Node) String() string { return fmt.Sprintf("%v%d", n.Kind, n.Index) }

// Machine is the assembled multiprocessor.
type Machine struct {
	Eng  *sim.Engine
	Net  *netsim.Network
	CPs  []*Node
	IOPs []*Node

	ops sim.Arena[op] // in-flight messaging operation records
}

// New builds a machine with nCP compute and nIOP I/O processors,
// interleaving the two kinds across interconnect addresses so neither is
// clustered in one corner of the torus.
func New(e *sim.Engine, netCfg netsim.Config, nCP, nIOP int, rng *sim.Rand) *Machine {
	m := &Machine{
		Eng: e,
		Net: netsim.New(e, netCfg, nCP+nIOP, rng),
	}
	// Bresenham-style interleave of CPs and IOPs over net addresses.
	cpLeft, iopLeft := nCP, nIOP
	var cpAcc, iopAcc int
	for id := 0; id < nCP+nIOP; id++ {
		takeCP := false
		switch {
		case iopLeft == 0:
			takeCP = true
		case cpLeft == 0:
			takeCP = false
		default:
			// Pick the kind lagging most behind its proportional share.
			takeCP = cpAcc*nIOP <= iopAcc*nCP
		}
		if takeCP {
			m.CPs = append(m.CPs, m.newNode(CP, len(m.CPs), id))
			cpLeft--
			cpAcc++
		} else {
			m.IOPs = append(m.IOPs, m.newNode(IOP, len(m.IOPs), id))
			iopLeft--
			iopAcc++
		}
	}
	return m
}

// InjectFaults attaches a run's fault injector to the machine's layers
// (currently the interconnect; disks are attached by the experiment
// driver, which owns them). A nil injector is the fault-free default.
func (m *Machine) InjectFaults(in *fault.Injector) {
	if in == nil {
		return
	}
	m.Net.SetFaults(in.Net())
}

func (m *Machine) newNode(k Kind, index, netID int) *Node {
	name := fmt.Sprintf("%v%d", k, index)
	m.Net.SetNodeName(netID, name)
	return &Node{
		Kind:  k,
		Index: index,
		NetID: netID,
		CPU:   sim.NewPipe(m.Eng, "cpu:"+name, 0, 0),
		Mail:  sim.NewMailbox(m.Eng),
	}
}

// op is one in-flight messaging operation — a mailbox send, a DMA put,
// or a DMA get — pooled on the machine's arena. Every stage of an
// operation's event chain (CPU setup done, data landed, remote DMA done)
// is a completion token targeting the op itself, so a steady-state
// message costs no allocations: the record, its payload snapshot buffer,
// and its segment lists are all reused LIFO. gen is bumped when the
// record is released at its terminal stage, so a token queued against a
// previous incarnation drops as a no-op.
type op struct {
	m       *Machine
	gen     uint64
	src     *Node          // data sender (the remote node for Memget)
	dst     *Node          // data receiver (the caller for Memget)
	n       int            // payload bytes of the data message
	req     int            // request-message bytes (Memget only)
	off     int64          // remote source offset (single-Memget only)
	cpu     time.Duration  // remote DMA setup cost (Memget only)
	msg     any            // mailbox message (Send only)
	buf     []byte         // Memput payload snapshot, segments concatenated
	segOff  []int64        // Memput scatter destination offsets
	segLen  []int          // Memput scatter segment lengths
	getSegs []GetSeg       // MemgetGather segments (with caller-side Dst)
	dstBuf  []byte         // single-Memget caller destination
	onSent  sim.Completion // fires when the source NIC is free
	done    sim.Completion // terminal completion (delivered / data landed)
}

// Op token kinds, one per event-chain stage.
const (
	opSendMail   uint8 = iota + 1 // Send: CPU done, ship to mailbox
	opMailPut                     // Send: delivered, put in mailbox
	opSendC                       // SendC: CPU done, ship with completion
	opMemput                      // Memput: CPU done, ship the data
	opMemputLand                  // Memput: delivered, scatter into memory
	opMemgetReq                   // Memget: CPU done, ship the request
	opMemgetDMA                   // Memget: request arrived, start remote DMA
	opMemgetCopy                  // Memget: DMA done, copy and ship reply
)

func (m *Machine) newOp(src, dst *Node) *op {
	o := m.ops.Get()
	o.m = m
	o.src, o.dst = src, dst
	return o
}

func (o *op) token(kind uint8) sim.Completion {
	return sim.Completion{Target: o, Gen: o.gen, Kind: kind}
}

// release returns the record to the arena, invalidating queued tokens
// and dropping payload references (snapshot capacity is kept for reuse).
func (o *op) release() {
	o.gen++
	o.src, o.dst = nil, nil
	o.msg = nil
	o.buf = o.buf[:0]
	o.segOff = o.segOff[:0]
	o.segLen = o.segLen[:0]
	for i := range o.getSegs {
		o.getSegs[i].Dst = nil
	}
	o.getSegs = o.getSegs[:0]
	o.dstBuf = nil
	o.onSent, o.done = sim.Completion{}, sim.Completion{}
	o.m.ops.Put(o)
}

// Complete advances the operation by one stage.
func (o *op) Complete(c sim.Completion, now sim.Time) {
	if c.Gen != o.gen {
		return
	}
	m := o.m
	switch c.Kind {
	case opSendMail:
		m.Net.Send(o.src.NetID, o.dst.NetID, o.n, sim.Completion{}, o.token(opMailPut))
	case opMailPut:
		msg, dst := o.msg, o.dst
		o.release()
		dst.Mail.Put(msg)
	case opSendC:
		src, dst, n, done := o.src, o.dst, o.n, o.done
		o.release()
		m.Net.Send(src.NetID, dst.NetID, n, sim.Completion{}, done)
	case opMemput:
		m.Net.Send(o.src.NetID, o.dst.NetID, o.n, o.onSent, o.token(opMemputLand))
	case opMemputLand:
		pos := 0
		for i, so := range o.segOff {
			ln := o.segLen[i]
			copy(o.dst.Mem[so:], o.buf[pos:pos+ln])
			pos += ln
		}
		done := o.done
		o.release()
		done.Invoke(now)
	case opMemgetReq:
		// The request travels caller -> remote (against the op's data
		// direction, which is src=remote -> dst=caller).
		m.Net.Send(o.dst.NetID, o.src.NetID, o.req, sim.Completion{}, o.token(opMemgetDMA))
	case opMemgetDMA:
		_, dmaDone := o.src.CPU.ReserveFor(o.cpu)
		m.Eng.AtCompletion(dmaDone, o.token(opMemgetCopy))
	case opMemgetCopy:
		// The DMA instant is the snapshot point: bytes land in the
		// caller's destination now, while the data message is in flight;
		// the caller must not read them until done fires at delivery.
		if len(o.getSegs) > 0 {
			for _, s := range o.getSegs {
				copy(s.Dst[:s.Len], o.src.Mem[s.Off:s.Off+s.Len])
			}
		} else {
			copy(o.dstBuf, o.src.Mem[o.off:o.off+int64(len(o.dstBuf))])
		}
		src, caller, n, done := o.src, o.dst, o.n, o.done
		o.release()
		m.Net.Send(src.NetID, caller.NetID, n, sim.Completion{}, done)
	}
}

// Send models a software message: srcCPU is charged on the sender, the
// network carries the payload, and at delivery the message is placed in
// dst's mailbox (the receiver charges its own processing cost when it
// dequeues the message).
func (m *Machine) Send(src, dst *Node, payloadBytes int, srcCPU time.Duration, msg any) {
	o := m.newOp(src, dst)
	o.n = payloadBytes
	o.msg = msg
	_, cpuDone := src.CPU.ReserveFor(srcCPU)
	m.Eng.AtCompletion(cpuDone, o.token(opSendMail))
}

// SendC is like Send but fires the done completion (in event context) at
// delivery time instead of using the destination mailbox — the shape of
// a reply whose payload is deposited by DMA and whose handler is a
// lightweight interrupt rather than a software thread.
func (m *Machine) SendC(src, dst *Node, payloadBytes int, srcCPU time.Duration, done sim.Completion) {
	o := m.newOp(src, dst)
	o.n = payloadBytes
	o.done = done
	_, cpuDone := src.CPU.ReserveFor(srcCPU)
	m.Eng.AtCompletion(cpuDone, o.token(opSendC))
}

// Memput copies data into dst.Mem at off using DMA: the source CPU pays
// cpuCost to set up the transfer, the NICs carry the bytes, and the data
// lands in dst.Mem with no software on the destination node. The data is
// snapshotted at call time (into a pooled buffer). onSent, if valid,
// fires when the source NIC is free; onDelivered, if valid, fires when
// the data has landed.
func (m *Machine) Memput(src, dst *Node, off int, data []byte, cpuCost time.Duration,
	onSent, onDelivered sim.Completion) {
	o := m.newOp(src, dst)
	o.buf = append(o.buf[:0], data...)
	o.segOff = append(o.segOff[:0], int64(off))
	o.segLen = append(o.segLen[:0], len(data))
	o.n = len(data)
	o.onSent, o.done = onSent, onDelivered
	_, cpuDone := src.CPU.ReserveFor(cpuCost)
	m.Eng.AtCompletion(cpuDone, o.token(opMemput))
}

// MemSeg is one piece of a gather/scatter Memput: Data lands at Off in
// the destination's memory.
type MemSeg struct {
	Off  int64
	Data []byte
}

// GetSeg names one piece of a gather Memget: Len bytes at Off in the
// remote memory, landing in Dst (len >= Len) at the caller.
type GetSeg struct {
	Off int64
	Len int64
	Dst []byte
}

// MemputGather is Memput for several non-contiguous destination ranges
// carried in a single message (the paper's gather/scatter extension).
func (m *Machine) MemputGather(src, dst *Node, segs []MemSeg, cpuCost time.Duration,
	onSent, onDelivered sim.Completion) {
	o := m.newOp(src, dst)
	total := 0
	for _, s := range segs {
		o.buf = append(o.buf, s.Data...)
		o.segOff = append(o.segOff, s.Off)
		o.segLen = append(o.segLen, len(s.Data))
		total += len(s.Data)
	}
	o.n = total
	o.onSent, o.done = onSent, onDelivered
	_, cpuDone := src.CPU.ReserveFor(cpuCost)
	m.Eng.AtCompletion(cpuDone, o.token(opMemput))
}

// MemgetGather is Memget for several non-contiguous source ranges: one
// request message out, one data message back, each piece copied into its
// segment's Dst at the remote DMA instant. done fires at the caller when
// the data message arrives; the Dst slices must not be read before then.
func (m *Machine) MemgetGather(caller, src *Node, segs []GetSeg, cpuCost, remoteCPU time.Duration,
	done sim.Completion) {
	o := m.newOp(src, caller)
	o.getSegs = append(o.getSegs[:0], segs...)
	total := 0
	for _, s := range segs {
		total += int(s.Len)
	}
	o.n = total
	o.req = 8 * len(segs)
	o.cpu = remoteCPU
	o.done = done
	_, cpuDone := caller.CPU.ReserveFor(cpuCost)
	m.Eng.AtCompletion(cpuDone, o.token(opMemgetReq))
}

// Memget fetches len(dst) bytes from src.Mem at off on behalf of the
// caller node: a small request message travels to src, whose DMA engine
// (charged as remoteCPU on src's CPU pipe, without any software thread)
// replies with the data, copied into dst at the DMA instant. done fires
// at the caller when the data message arrives; dst must not be read
// before then.
func (m *Machine) Memget(caller, src *Node, off int, dst []byte, cpuCost, remoteCPU time.Duration,
	done sim.Completion) {
	o := m.newOp(src, caller)
	o.off = int64(off)
	o.dstBuf = dst
	o.n = len(dst)
	o.req = 0
	o.cpu = remoteCPU
	o.done = done
	_, cpuDone := caller.CPU.ReserveFor(cpuCost)
	m.Eng.AtCompletion(cpuDone, o.token(opMemgetReq))
}

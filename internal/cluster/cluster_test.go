package cluster

import (
	"bytes"
	"testing"
	"time"

	"ddio/internal/netsim"
	"ddio/internal/sim"
)

// funcTarget adapts a plain function to sim.CompletionTarget.
type funcTarget func(now sim.Time)

func (f funcTarget) Complete(_ sim.Completion, now sim.Time) { f(now) }

// callback wraps fn as a completion token, allocating the closure.
func callback(fn func(now sim.Time)) sim.Completion {
	return sim.Completion{Target: funcTarget(fn)}
}

func newMachine(t *testing.T, ncp, niop int) (*sim.Engine, *Machine) {
	t.Helper()
	e := sim.NewEngine()
	t.Cleanup(e.Close)
	return e, New(e, netsim.DefaultConfig(), ncp, niop, sim.NewRand(1))
}

func TestMachineShape(t *testing.T) {
	_, m := newMachine(t, 16, 16)
	if len(m.CPs) != 16 || len(m.IOPs) != 16 {
		t.Fatalf("machine %d CPs, %d IOPs", len(m.CPs), len(m.IOPs))
	}
	for i, n := range m.CPs {
		if n.Kind != CP || n.Index != i {
			t.Fatalf("CP %d mislabeled: %v", i, n)
		}
	}
	for i, n := range m.IOPs {
		if n.Kind != IOP || n.Index != i {
			t.Fatalf("IOP %d mislabeled: %v", i, n)
		}
	}
}

func TestPlacementInterleavesKinds(t *testing.T) {
	_, m := newMachine(t, 16, 16)
	// With equal counts the interleave should alternate perfectly:
	// no two CPs on adjacent net IDs.
	kind := make(map[int]Kind)
	for _, n := range m.CPs {
		kind[n.NetID] = CP
	}
	for _, n := range m.IOPs {
		kind[n.NetID] = IOP
	}
	for id := 0; id+1 < 32; id++ {
		if kind[id] == kind[id+1] {
			t.Fatalf("net IDs %d and %d both %v; want alternating", id, id+1, kind[id])
		}
	}
}

func TestPlacementUnevenCounts(t *testing.T) {
	_, m := newMachine(t, 16, 1)
	ids := map[int]bool{}
	for _, n := range append(append([]*Node{}, m.CPs...), m.IOPs...) {
		if ids[n.NetID] {
			t.Fatalf("duplicate net ID %d", n.NetID)
		}
		ids[n.NetID] = true
	}
	if len(ids) != 17 {
		t.Fatalf("%d distinct net IDs, want 17", len(ids))
	}
}

func TestNodeString(t *testing.T) {
	_, m := newMachine(t, 2, 2)
	if m.CPs[1].String() != "CP1" || m.IOPs[0].String() != "IOP0" {
		t.Fatalf("names %v %v", m.CPs[1], m.IOPs[0])
	}
}

func TestSendDeliversToMailboxAndChargesCPU(t *testing.T) {
	e, m := newMachine(t, 2, 2)
	src, dst := m.CPs[0], m.IOPs[0]
	var got any
	var recv sim.Completion
	recv = callback(func(sim.Time) { got, _ = dst.Mail.Recv(recv) })
	dst.Mail.Recv(recv)
	m.Send(src, dst, 128, 10*time.Microsecond, "payload")
	e.Run()
	if got != "payload" {
		t.Fatalf("got %v", got)
	}
	if src.CPU.Busy() != 10*time.Microsecond {
		t.Fatalf("source CPU busy %v", src.CPU.Busy())
	}
}

func TestSendCRunsAtDelivery(t *testing.T) {
	e, m := newMachine(t, 2, 2)
	var at sim.Time
	m.SendC(m.CPs[0], m.CPs[1], 64, 0, callback(func(ts sim.Time) { at = ts }))
	e.Run()
	if at == 0 {
		t.Fatal("SendC completion never fired")
	}
}

func TestMemputLandsDataAndSignals(t *testing.T) {
	e, m := newMachine(t, 2, 2)
	dst := m.CPs[1]
	dst.Mem = make([]byte, 64)
	data := []byte{1, 2, 3, 4}
	var sentAt, doneAt sim.Time
	m.Memput(m.IOPs[0], dst, 8, data, time.Microsecond,
		callback(func(ts sim.Time) { sentAt = ts }),
		callback(func(td sim.Time) { doneAt = td }))
	// Mutate the source buffer after the call: the Memput must have
	// snapshotted it.
	data[0] = 99
	e.Run()
	if !bytes.Equal(dst.Mem[8:12], []byte{1, 2, 3, 4}) {
		t.Fatalf("dest memory %v", dst.Mem[8:12])
	}
	if sentAt == 0 || doneAt == 0 || doneAt < sentAt {
		t.Fatalf("sent %v, delivered %v", sentAt, doneAt)
	}
}

func TestMemgetFetchesRemoteData(t *testing.T) {
	e, m := newMachine(t, 2, 2)
	src := m.CPs[0]
	src.Mem = []byte{10, 20, 30, 40, 50}
	got := make([]byte, 3)
	var doneAt sim.Time
	m.Memget(m.IOPs[0], src, 1, got, time.Microsecond, time.Microsecond,
		callback(func(ts sim.Time) { doneAt = ts }))
	e.Run()
	if doneAt == 0 {
		t.Fatal("Memget done completion never fired")
	}
	if !bytes.Equal(got, []byte{20, 30, 40}) {
		t.Fatalf("got %v", got)
	}
	if src.CPU.Busy() == 0 {
		t.Fatal("remote DMA charged no CPU time")
	}
}

func TestMemputGatherScattersSegments(t *testing.T) {
	e, m := newMachine(t, 2, 2)
	dst := m.CPs[1]
	dst.Mem = make([]byte, 32)
	segs := []MemSeg{
		{Off: 0, Data: []byte{1}},
		{Off: 10, Data: []byte{2, 3}},
		{Off: 30, Data: []byte{4}},
	}
	delivered := false
	m.MemputGather(m.IOPs[0], dst, segs, time.Microsecond, sim.Completion{},
		callback(func(sim.Time) { delivered = true }))
	e.Run()
	if !delivered {
		t.Fatal("gather Memput not delivered")
	}
	if dst.Mem[0] != 1 || dst.Mem[10] != 2 || dst.Mem[11] != 3 || dst.Mem[30] != 4 {
		t.Fatalf("scatter result %v", dst.Mem)
	}
}

func TestMemgetGatherReturnsPiecesInOrder(t *testing.T) {
	e, m := newMachine(t, 2, 2)
	src := m.CPs[0]
	src.Mem = []byte{0, 1, 2, 3, 4, 5, 6, 7}
	p0, p1 := make([]byte, 2), make([]byte, 3)
	fired := false
	m.MemgetGather(m.IOPs[0], src,
		[]GetSeg{{Off: 6, Len: 2, Dst: p0}, {Off: 0, Len: 3, Dst: p1}},
		time.Microsecond, time.Microsecond,
		callback(func(sim.Time) { fired = true }))
	e.Run()
	if !fired || !bytes.Equal(p0, []byte{6, 7}) || !bytes.Equal(p1, []byte{0, 1, 2}) {
		t.Fatalf("pieces %v %v (fired %v)", p0, p1, fired)
	}
}

// TestSendCRoundTripAllocFree pins the tentpole's alloc contract at the
// cluster layer: a warm request/reply round trip — SendC out, SendC
// back, both signaling a pooled WaitGroup — allocates nothing.
func TestSendCRoundTripAllocFree(t *testing.T) {
	e, m := newMachine(t, 2, 2)
	cp, iop := m.CPs[0], m.IOPs[0]
	wg := sim.NewWaitGroup(e, "rt", 0)
	done := wg.DoneC()
	roundTrip := func() {
		wg.Add(2)
		m.SendC(cp, iop, 64, time.Microsecond, done)  // request
		m.SendC(iop, cp, 128, time.Microsecond, done) // reply
		e.Run()
	}
	for i := 0; i < 8; i++ { // warm op arena, message arena, pipes, queue
		roundTrip()
	}
	avg := testing.AllocsPerRun(200, roundTrip)
	if avg > 0 {
		t.Errorf("warm SendC round trip allocates %.2f objects/op, want 0", avg)
	}
}

// TestMemputMemgetAllocFree extends the guard to the DMA path: warm
// Memput and Memget with completion tokens must not allocate.
func TestMemputMemgetAllocFree(t *testing.T) {
	e, m := newMachine(t, 2, 2)
	cp, iop := m.CPs[0], m.IOPs[0]
	cp.Mem = make([]byte, 256)
	src := make([]byte, 64)
	dst := make([]byte, 64)
	wg := sim.NewWaitGroup(e, "dma", 0)
	done := wg.DoneC()
	op := func() {
		wg.Add(2)
		m.Memput(iop, cp, 0, src, time.Microsecond, sim.Completion{}, done)
		m.Memget(iop, cp, 64, dst, time.Microsecond, time.Microsecond, done)
		e.Run()
	}
	for i := 0; i < 8; i++ {
		op()
	}
	avg := testing.AllocsPerRun(200, op)
	if avg > 0 {
		t.Errorf("warm Memput+Memget allocates %.2f objects/op, want 0", avg)
	}
}

func TestGatherIsOneMessageEachWay(t *testing.T) {
	e, m := newMachine(t, 2, 2)
	dst := m.CPs[1]
	dst.Mem = make([]byte, 16)
	m.MemputGather(m.IOPs[0], dst, []MemSeg{{0, []byte{1}}, {8, []byte{2}}}, 0,
		sim.Completion{}, sim.Completion{})
	e.Run()
	if m.Net.Messages() != 1 {
		t.Fatalf("gather Memput used %d messages, want 1", m.Net.Messages())
	}
}

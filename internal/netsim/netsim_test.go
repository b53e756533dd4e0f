package netsim

import (
	"testing"
	"testing/quick"
	"time"

	"ddio/internal/sim"
)

// funcTarget adapts a plain function to sim.CompletionTarget.
type funcTarget func(now sim.Time)

func (f funcTarget) Complete(_ sim.Completion, now sim.Time) { f(now) }

// callback wraps fn as a completion token, allocating the closure.
func callback(fn func(now sim.Time)) sim.Completion {
	return sim.Completion{Target: funcTarget(fn)}
}

func newNet(t *testing.T, nodes int) (*sim.Engine, *Network) {
	t.Helper()
	e := sim.NewEngine()
	t.Cleanup(e.Close)
	cfg := DefaultConfig()
	cfg.JitterMax = 0 // deterministic latency for exact assertions
	return e, New(e, cfg, nodes, sim.NewRand(1))
}

func TestHopsOnTorus(t *testing.T) {
	_, n := newNet(t, 36) // 6x6
	cases := []struct{ a, b, want int }{
		{0, 0, 0},
		{0, 1, 1},
		{0, 5, 1},  // wraparound in x
		{0, 6, 1},  // one row down
		{0, 30, 1}, // wraparound in y
		{0, 7, 2},
		{0, 21, 6}, // (3,3) from (0,0): dx=3, dy=3 on a 6x6 torus
	}
	for _, c := range cases {
		if got := n.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: hop distance is symmetric, non-negative, and bounded by the
// torus diameter.
func TestQuickHopsSymmetricBounded(t *testing.T) {
	_, n := newNet(t, 36)
	diameter := n.cfg.Width/2 + n.cfg.Height/2
	f := func(a, b uint8) bool {
		x, y := int(a)%36, int(b)%36
		h := n.Hops(x, y)
		return h == n.Hops(y, x) && h >= 0 && h <= diameter
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGridGrowsForManyNodes(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	n := New(e, DefaultConfig(), 50, sim.NewRand(1))
	if n.Config().Width*n.Config().Height < 50 {
		t.Fatalf("grid %dx%d too small", n.Config().Width, n.Config().Height)
	}
}

func TestSendDeliversWithWireLatency(t *testing.T) {
	e, n := newNet(t, 36)
	var sentAt, gotAt sim.Time
	n.Send(0, 1, 1000, callback(func(ts sim.Time) { sentAt = ts }), callback(func(td sim.Time) { gotAt = td }))
	e.Run()
	cfg := n.Config()
	perByte := time.Duration(float64(time.Second) / cfg.LinkBandwidth)
	wire := (1000 + cfg.HeaderBytes)
	wantSent := sim.Time(cfg.DMASetup) + sim.Time(wire)*sim.Time(perByte)
	if sentAt != wantSent {
		t.Fatalf("onSent at %v, want %v", sentAt, wantSent)
	}
	// Delivery: the head flit leaves immediately (wormhole pipelining),
	// crosses 1 router, and the destination NIC streams the same bytes
	// concurrently with the source — so delivery is one router delay
	// after the (equal-length) in-NIC occupancy that started at the
	// head's arrival.
	wantGot := sim.Time(cfg.RouterDelay) + wantSent
	if gotAt != wantGot {
		t.Fatalf("delivered at %v, want %v", gotAt, wantGot)
	}
}

func TestSourceNICSerializesSends(t *testing.T) {
	e, n := newNet(t, 36)
	var first, second sim.Time
	n.Send(0, 1, 100000, sim.Completion{}, callback(func(ts sim.Time) { first = ts }))
	n.Send(0, 2, 100000, sim.Completion{}, callback(func(ts sim.Time) { second = ts }))
	e.Run()
	if second <= first {
		t.Fatalf("two sends from one node completed at %v/%v; out-NIC must serialize", first, second)
	}
	if n.Messages() != 2 || n.Bytes() != 200000 {
		t.Fatalf("counters msgs=%d bytes=%d", n.Messages(), n.Bytes())
	}
}

func TestDestNICSerializesReceives(t *testing.T) {
	e, n := newNet(t, 36)
	var a, b sim.Time
	n.Send(1, 0, 100000, sim.Completion{}, callback(func(ts sim.Time) { a = ts }))
	n.Send(2, 0, 100000, sim.Completion{}, callback(func(ts sim.Time) { b = ts }))
	e.Run()
	if a == b {
		t.Fatal("two receives at one node completed simultaneously; in-NIC must serialize")
	}
}

func TestSelfSendWorks(t *testing.T) {
	e, n := newNet(t, 36)
	ok := false
	n.Send(3, 3, 10, sim.Completion{}, callback(func(sim.Time) { ok = true }))
	e.Run()
	if !ok {
		t.Fatal("self-send never delivered")
	}
}

func TestJitterIsSeededDeterministic(t *testing.T) {
	run := func() sim.Time {
		e := sim.NewEngine()
		defer e.Close()
		cfg := DefaultConfig() // jitter on
		n := New(e, cfg, 4, sim.NewRand(77))
		var at sim.Time
		n.Send(0, 1, 100, sim.Completion{}, callback(func(td sim.Time) { at = td }))
		e.Run()
		return at
	}
	if run() != run() {
		t.Fatal("jittered delivery time differs across identical runs")
	}
}

// TestSendAllocFree is the allocation guard the token refactor exists
// for: on a warm network, a full Send with both completion tokens —
// onSent and deliver — must not allocate. The tokens are WaitGroup
// completions, the dominant real call shape (cluster signals
// sent/delivered WaitGroups).
func TestSendAllocFree(t *testing.T) {
	e, n := newNet(t, 36)
	wg := sim.NewWaitGroup(e, "send", 0)
	done := wg.DoneC()
	send := func() {
		wg.Add(2)
		n.Send(0, 1, 1000, done, done)
		e.Run()
	}
	for i := 0; i < 8; i++ { // warm the arena, pipes, and event queue
		send()
	}
	avg := testing.AllocsPerRun(200, send)
	if avg > 0 {
		t.Errorf("warm Send allocates %.2f objects/op, want 0", avg)
	}
}

// TestSendBusiesBothNICs: a message occupies the sender's outbound and
// the receiver's inbound NIC, and no other.
func TestSendBusiesBothNICs(t *testing.T) {
	e, n := newNet(t, 4)
	n.Send(0, 1, 1<<20, sim.Completion{}, sim.Completion{})
	e.Run()
	if n.nics[0].out.Busy() <= 0 || n.nics[1].in.Busy() <= 0 {
		t.Fatalf("send left a NIC idle: out %v, in %v", n.nics[0].out.Busy(), n.nics[1].in.Busy())
	}
	if n.nics[0].in.Busy() != 0 || n.nics[1].out.Busy() != 0 || n.nics[2].out.Busy() != 0 {
		t.Fatal("send charged a NIC it does not cross")
	}
}

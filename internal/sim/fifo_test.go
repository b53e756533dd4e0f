package sim

import "testing"

// TestFifoOrderAcrossCompactionAndReset drives one fifo through growth,
// head-heavy compaction (a full array with dead head slots) and resets
// to offset 0 on drain, checking strict FIFO order against a counter.
func TestFifoOrderAcrossCompactionAndReset(t *testing.T) {
	var f fifo[int]
	next, want := 0, 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			f.push(next)
			next++
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			if got := f.pop(); got != want {
				t.Fatalf("popped %d, want %d", got, want)
			}
			want++
		}
	}
	push(8)
	c := cap(f.buf)
	pop(6) // 6 dead head slots, 2 live
	push(c - 8)
	if f.head == 0 {
		t.Fatal("filled array compacted early")
	}
	push(1) // array full, mostly dead: compacts instead of growing
	if f.head != 0 || cap(f.buf) != c {
		t.Fatalf("after compaction: head %d cap %d, want 0 and %d", f.head, cap(f.buf), c)
	}
	pop(f.len())
	if f.head != 0 || len(f.buf) != 0 || cap(f.buf) != c {
		t.Fatalf("after drain: head %d len %d cap %d, want 0/0/%d", f.head, len(f.buf), cap(f.buf), c)
	}
	for round := 0; round < 50; round++ { // interleaved steady state
		push(1 + round%5)
		pop(1 + round%3)
	}
	pop(f.len())
	if next != want {
		t.Fatalf("pushed %d, popped %d", next, want)
	}
}

// TestFifoPopZeroesSlots: a popped slot is cleared at once, and a
// compaction clears the slots its live items moved out of, so the queue
// never pins a value it has handed out.
func TestFifoPopZeroesSlots(t *testing.T) {
	var f fifo[*int]
	vals := make([]int, 16)
	for i := range vals {
		f.push(&vals[i])
	}
	for i := 0; i < 12; i++ {
		f.pop()
		if f.buf[i] != nil {
			t.Fatalf("popped slot %d not zeroed", i)
		}
	}
	for len(f.buf) < cap(f.buf) {
		f.push(&vals[0])
	}
	f.push(&vals[1]) // compacts
	for i, v := range f.buf[len(f.buf):cap(f.buf)] {
		if v != nil {
			t.Fatalf("slot %d past the compacted items still set", len(f.buf)+i)
		}
	}
}

// TestMailboxPingPongAllocFree: once warm, a Put/Recv round trip
// between two receivers allocates nothing — the mailbox queues and the
// waiting-token queues keep their capacity across drains.
func TestMailboxPingPongAllocFree(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	ping, pong := NewMailbox(e), NewMailbox(e)
	var msg any = 1 // boxed once: Put stores the interface as is
	echo := &relay{from: ping, to: pong}
	client := &relay{from: pong}
	echo.recv(0)
	client.recv(0)
	round := func() {
		echo.got, echo.at = echo.got[:0], echo.at[:0]
		client.got, client.at = client.got[:0], client.at[:0]
		ping.Put(msg)
		e.Run()
	}
	for i := 0; i < 8; i++ {
		round()
	}
	if len(client.got) != 1 || client.got[0] != msg {
		t.Fatalf("round trip delivered %v", client.got)
	}
	if avg := testing.AllocsPerRun(200, round); avg > 0 {
		t.Errorf("mailbox ping-pong allocates %.2f objects/op, want 0", avg)
	}
}

// TestCondWaitSignalAllocFree: once warm, a Wait/Signal cycle allocates
// nothing.
func TestCondWaitSignalAllocFree(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	c := NewCond(e, "c")
	fn := func(p *Proc) { c.Wait(p) }
	cycle := func() {
		e.Go("waiter", fn)
		e.Run()
		c.Signal()
		e.Run()
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg > 0 {
		t.Errorf("cond wait/signal allocates %.2f objects/op, want 0", avg)
	}
}

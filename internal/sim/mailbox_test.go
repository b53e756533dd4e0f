package sim

import (
	"testing"
	"time"
)

// relay is a mailbox receiver for tests: a completion target that takes
// every message from its mailbox as it arrives, recording each and the
// instant it was taken, and passes it on to the next mailbox, if any.
type relay struct {
	from, to *Mailbox
	got      []any
	at       []Time
}

// recv takes every queued message, then leaves its token waiting.
func (r *relay) recv(now Time) {
	for {
		v, ok := r.from.Recv(Completion{Target: r})
		if !ok {
			return
		}
		r.got = append(r.got, v)
		r.at = append(r.at, now)
		if r.to != nil {
			r.to.Put(v)
		}
	}
}

func (r *relay) Complete(_ Completion, now Time) { r.recv(now) }

func TestMailboxFIFO(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	mb := NewMailbox(e)
	mb.Put(1)
	mb.Put(2)
	mb.Put(3)
	r := &relay{from: mb}
	r.recv(0)
	if len(r.got) != 3 || r.got[0] != 1 || r.got[1] != 2 || r.got[2] != 3 {
		t.Fatalf("order %v", r.got)
	}
	if e.queue.len() != 0 {
		t.Fatalf("Recv queued %d events", e.queue.len())
	}
}

// TestMailboxRecvFiresAtPut: Recv on an empty mailbox queues no event;
// its token fires at the instant of the next Put, after the events
// already queued for that instant, and the target's Recv then returns
// the message.
func TestMailboxRecvFiresAtPut(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	mb := NewMailbox(e)
	r := &relay{from: mb}
	r.recv(0)
	if len(r.got) != 0 || e.queue.len() != 0 {
		t.Fatalf("empty Recv took %v and queued %d events", r.got, e.queue.len())
	}
	at := Time(5 * time.Millisecond)
	var order []string
	callAt(e, at, func() {
		mb.Put("hello")
		order = append(order, "put")
		callAt(e, at, func() { order = append(order, "later") })
	})
	callAt(e, at, func() { order = append(order, "queued") })
	e.Run()
	if len(r.got) != 1 || r.got[0] != "hello" || r.at[0] != at {
		t.Fatalf("received %v at %v, want hello at %v", r.got, r.at, at)
	}
	if len(order) != 3 || order[0] != "put" || order[1] != "queued" || order[2] != "later" {
		t.Fatalf("order %v", order)
	}
	if e.Events() != 4 {
		t.Fatalf("%d events, want 4 (three callbacks and the receive)", e.Events())
	}
}

// TestMailboxMultipleWaitersFIFO: each Put fires one waiting token,
// oldest first.
func TestMailboxMultipleWaitersFIFO(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	mb := NewMailbox(e)
	var got []string
	for _, n := range []string{"a", "b"} {
		n := n
		var c Completion
		c = Callback(func(Time) {
			if v, ok := mb.Recv(c); ok {
				got = append(got, n+"="+string(rune('0'+v.(int))))
			}
		})
		if _, ok := mb.Recv(c); ok {
			t.Fatal("empty mailbox returned a message")
		}
	}
	callAt(e, Time(time.Millisecond), func() { mb.Put(1); mb.Put(2) })
	e.Run()
	if len(got) != 2 || got[0] != "a=1" || got[1] != "b=2" {
		t.Fatalf("waiter order %v, want [a=1 b=2]", got)
	}
}

// TestMailboxDrainResetsQueue: a drained mailbox holds no messages and
// its queue is back at offset 0 with every slot cleared, so a later burst
// reuses the same backing array.
func TestMailboxDrainResetsQueue(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	mb := NewMailbox(e)
	for i := 0; i < 5; i++ {
		mb.Put(i)
	}
	r := &relay{from: mb}
	r.recv(0)
	if len(r.got) != 5 || r.got[0] != 0 || r.got[4] != 4 {
		t.Fatalf("received %v", r.got)
	}
	if mb.queue.len() != 0 || mb.queue.head != 0 {
		t.Fatalf("drained queue: len %d head %d, want 0/0", mb.queue.len(), mb.queue.head)
	}
	for i, v := range mb.queue.buf[:cap(mb.queue.buf)] {
		if v != nil {
			t.Fatalf("slot %d still holds %v after drain", i, v)
		}
	}
}

package sim

import (
	"testing"
	"time"
)

func TestMailboxFIFO(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox(e, "m")
	mb.Put(1)
	mb.Put(2)
	mb.Put(3)
	var got []int
	e.Go("r", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, mb.Get(p).(int))
		}
	})
	e.Run()
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order %v", got)
	}
}

func TestMailboxGetBlocksUntilPut(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox(e, "m")
	var at Time
	e.Go("r", func(p *Proc) {
		v := mb.Get(p).(string)
		at = p.Now()
		if v != "hello" {
			t.Errorf("got %q", v)
		}
	})
	callAt(e, Time(5*time.Millisecond), func() { mb.Put("hello") })
	e.Run()
	if at != Time(5*time.Millisecond) {
		t.Fatalf("received at %v, want 5ms", at)
	}
}

func TestMailboxMultipleWaitersFIFO(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox(e, "m")
	var got []string
	for _, n := range []string{"a", "b"} {
		n := n
		e.Go(n, func(p *Proc) {
			v := mb.Get(p).(int)
			got = append(got, n)
			_ = v
		})
	}
	callAt(e, Time(time.Millisecond), func() { mb.Put(1); mb.Put(2) })
	e.Run()
	if len(got) != 2 || got[0] != "a" {
		t.Fatalf("waiter order %v, want a first", got)
	}
}

// TestMailboxDrainResetsQueue: a drained mailbox holds no messages and
// its queue is back at offset 0 with every slot cleared, so a later burst
// reuses the same backing array.
func TestMailboxDrainResetsQueue(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	mb := NewMailbox(e, "m")
	for i := 0; i < 5; i++ {
		mb.Put(i)
	}
	var got []int
	e.Go("r", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, mb.Get(p).(int))
		}
	})
	e.Run()
	if len(got) != 5 || got[0] != 0 || got[4] != 4 {
		t.Fatalf("received %v", got)
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

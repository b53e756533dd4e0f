package sim

// Mailbox is an unbounded FIFO message queue with blocking receive, the
// basic transport endpoint for simulated nodes. Put never blocks (the
// interconnect applies backpressure through its bandwidth pipes instead);
// Get blocks the calling proc until a message is available.
type Mailbox struct {
	eng       *Engine
	name      string
	parkLabel string // precomputed park reason (avoids per-wait concat)
	queue     fifo[any]
	waits     fifo[*Proc]
}

// NewMailbox returns an empty mailbox.
func NewMailbox(e *Engine, name string) *Mailbox {
	return &Mailbox{eng: e, name: name, parkLabel: "mailbox " + name}
}

// Put appends v and wakes the oldest waiting receiver, if any. It may be
// called from proc or event context.
func (m *Mailbox) Put(v any) {
	m.queue.push(v)
	if m.waits.len() > 0 {
		m.eng.wake(m.waits.pop())
	}
}

// Get removes and returns the oldest message, blocking p until one is
// available.
func (m *Mailbox) Get(p *Proc) any {
	for m.queue.len() == 0 {
		m.waits.push(p)
		p.park(m.parkLabel)
	}
	return m.queue.pop()
}

package sim

// Mailbox is an unbounded FIFO message queue, the basic transport
// endpoint for simulated nodes. Put never blocks (the interconnect
// applies backpressure through its bandwidth pipes instead). A receiver
// is a completion target, not a proc: Recv hands it the oldest message,
// or queues its token to fire when the next message arrives.
type Mailbox struct {
	eng   *Engine
	queue fifo[any]
	waits fifo[Completion]
}

// NewMailbox returns an empty mailbox.
func NewMailbox(e *Engine) *Mailbox {
	return &Mailbox{eng: e}
}

// Put appends v and fires the oldest waiting receiver's token, if any,
// at the current instant (after the events already queued for it). It
// may be called from proc or event context.
func (m *Mailbox) Put(v any) {
	m.queue.push(v)
	if m.waits.len() > 0 {
		m.eng.AtCompletion(m.eng.now, m.waits.pop())
	}
}

// Recv removes and returns the oldest message. When none is queued it
// returns false and queues c instead: the next Put fires c, whose target
// calls Recv again. Waiting tokens fire oldest first, one per Put.
func (m *Mailbox) Recv(c Completion) (any, bool) {
	if m.queue.len() == 0 {
		m.waits.push(c)
		return nil, false
	}
	return m.queue.pop(), true
}

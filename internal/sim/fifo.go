package sim

// fifo is an unbounded first-in first-out queue over a head-indexed
// slice: pop advances head instead of reslicing, so the backing array
// keeps its capacity. A queue that drains resets to offset 0, and a push
// that finds the array full compacts the live items to the front when at
// least half the slots are dead (growing otherwise, which keeps both
// amortized O(1)). Once a queue has reached its peak depth, pushes and
// pops allocate nothing. Popped slots are zeroed so the queue pins no
// garbage.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

func (f *fifo[T]) push(x T) {
	if len(f.buf) == cap(f.buf) && 2*f.head >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	f.buf = append(f.buf, x)
}

// pop removes and returns the oldest item. The queue must not be empty.
func (f *fifo[T]) pop() T {
	x := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
	return x
}

// Package fifo holds the head-trimmed FIFO queue shared by the relay's
// per-feed event buffers and the Stemming window's per-prefix event
// lists.
package fifo

// Queue is a FIFO over one slice: buf[head:] is live. Pop advances head
// instead of re-slicing the front away — `buf = buf[1:]` strands the
// freed front capacity forever on a long-lived queue, so every refill
// of a steady queue reallocates — and the backing array is compacted in
// place (amortized O(1)) once the dead front outweighs the live tail.
// Steady push/pop churn therefore allocates nothing once the array has
// reached its high-water mark. Popped and compacted-over slots are
// zeroed, so the buffer never pins what a popped element referenced.
//
// The zero value is an empty queue. A Queue is not safe for concurrent
// use.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the back.
func (q *Queue[T]) Push(v T) { q.buf = append(q.buf, v) }

// Front returns the oldest element in place; the caller must check
// Len() > 0.
func (q *Queue[T]) Front() *T { return &q.buf[q.head] }

// Items returns the live elements, oldest first, as a view into the
// queue's backing array: valid until the next Push or Pop.
func (q *Queue[T]) Items() []T { return q.buf[q.head:] }

// Pop removes and returns the oldest element; the caller must check
// Len() > 0.
func (q *Queue[T]) Pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	} else if q.head > 32 && q.head > len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	return v
}

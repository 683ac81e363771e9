// Package fifo holds the queue both simulation layers serve from: the
// layer-2 request queues and control plane, and the layer-1 per-core
// uProcess run queues.
package fifo

// Queue is a FIFO queue: a ring that doubles when full, so a warmed-up
// queue is served without allocating. Head, Pop and PopBack need a
// non-empty queue.
type Queue[T any] struct {
	buf  []T // the ring; its length is zero or a power of two
	head int // buf index of the head
	n    int // elements queued
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Head returns the oldest element.
func (q *Queue[T]) Head() T { return q.buf[q.head] }

// At returns the i-th oldest element, 0 ≤ i < Len().
func (q *Queue[T]) At(i int) T { return q.buf[(q.head+i)&(len(q.buf)-1)] }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// PushFront inserts v at the head.
func (q *Queue[T]) PushFront(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = v
	q.n++
}

// Pop removes and returns the oldest element.
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// PopBack removes and returns the newest element.
func (q *Queue[T]) PopBack() T {
	q.n--
	return q.buf[(q.head+q.n)&(len(q.buf)-1)]
}

// grow moves the queue, unwrapped, to the front of a ring twice the size.
func (q *Queue[T]) grow() {
	buf := make([]T, max(2*len(q.buf), 8))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

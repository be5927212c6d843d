// Package fifo holds the simulators' one queue type: internal/noc's packet
// queues and internal/chip's send queues and delivery records.
package fifo

// Queue is a first-in first-out queue that keeps its backing array. Pop
// advances a head index, and a queue that empties starts again at the front
// of its array. A push that finds the array full moves the live entries
// back to its start only when at least half of the array is dead; otherwise
// append grows the array. A compaction therefore moves no more entries than
// were pushed since the one before it, so a push costs amortised O(1) even
// for a backlog that is popped between pushes, and a queue whose occupancy
// is bounded stops allocating once its array holds twice the bound.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued entries.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// At returns the i-th entry from the head, in place.
func (q *Queue[T]) At(i int) *T { return &q.buf[q.head+i] }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the head.
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// Remove takes out the i-th entry from the head, keeping the order of the
// rest (the MZIM's lookahead grants an entry behind a blocked head).
func (q *Queue[T]) Remove(i int) T {
	live := q.buf[q.head:]
	v := live[i]
	copy(live[1:], live[:i])
	live[0] = v
	return q.Pop()
}

package noc

// fifo is a queue that keeps its backing array: popping advances a head
// index, a queue that empties starts again at the front of the array, and a
// push that finds the array full first moves the live entries back to its
// start. A queue whose occupancy is bounded therefore stops allocating once
// it has seen its bound.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int   { return len(q.buf) - q.head }
func (q *fifo[T]) at(i int) T { return q.buf[q.head+i] }

func (q *fifo[T]) push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// pop removes and returns the head.
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// remove takes out the i-th entry from the head, keeping the order of the
// rest (the MZIM's lookahead grants an entry behind a blocked head).
func (q *fifo[T]) remove(i int) T {
	live := q.buf[q.head:]
	v := live[i]
	copy(live[1:], live[:i])
	live[0] = v
	return q.pop()
}

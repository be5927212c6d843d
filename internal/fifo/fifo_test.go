package fifo

import "testing"

// TestQueueOrder checks first-in first-out order through wrap-arounds,
// compactions, growth and Remove.
func TestQueueOrder(t *testing.T) {
	var q Queue[int]
	var want []int
	next := 0
	for round := 0; round < 2000; round++ {
		for k := 0; k < round%7; k++ {
			q.Push(next)
			want = append(want, next)
			next++
		}
		for k := 0; k < round%5 && q.Len() > 0; k++ {
			if got := q.Pop(); got != want[0] {
				t.Fatalf("round %d: popped %d, want %d", round, got, want[0])
			}
			want = want[1:]
		}
		if q.Len() > 2 && round%11 == 0 {
			if got := q.Remove(2); got != want[2] {
				t.Fatalf("round %d: removed %d, want %d", round, got, want[2])
			}
			want = append(want[:2:2], want[3:]...)
		}
		if q.Len() != len(want) {
			t.Fatalf("round %d: %d queued, want %d", round, q.Len(), len(want))
		}
		for i, w := range want {
			if got := *q.At(i); got != w {
				t.Fatalf("round %d: entry %d is %d, want %d", round, i, got, w)
			}
		}
	}
}

// TestBacklogCompactsRarely holds a backlog of 1 000 entries under 100 000
// alternating pushes and pops and counts the entries compactions move (a
// push after which the head went from > 0 to 0 moved every live entry):
// compacting only when half the array is dead moves no more than is
// pushed, and the array stays within a small multiple of the backlog.
func TestBacklogCompactsRarely(t *testing.T) {
	const live, pushes = 1000, 100_000
	var q Queue[*int]
	for i := 0; i < live; i++ {
		q.Push(new(int))
	}
	moved := 0
	for i := 0; i < pushes; i++ {
		headBefore, n := q.head, q.Len()
		q.Push(new(int))
		if headBefore > 0 && q.head == 0 {
			moved += n
		}
		q.Pop()
	}
	if moved > 2*pushes {
		t.Fatalf("compactions moved %d entries for %d pushes (ceiling %d)", moved, pushes, 2*pushes)
	}
	if c := cap(q.buf); c > 4*live {
		t.Fatalf("array grew to %d for %d live entries", c, live)
	}
	t.Logf("compactions moved %d entries for %d pushes; array capacity %d", moved, pushes, cap(q.buf))
}

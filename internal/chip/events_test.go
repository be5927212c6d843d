package chip

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the container/heap queue the typed heap replaced; the order in
// which it pops events due in the same cycle is part of the model.
type refHeap []event

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestEventHeapKeepsContainerHeapOrder runs seeded random push/pop
// sequences, with few distinct due cycles so that most events tie, through
// the typed heap and through container/heap, and requires the same pop
// order. Events are told apart by a sequence number in txn.
func TestEventHeapKeepsContainerHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		spread := 1 + trial%20 // distinct due cycles
		var typed eventHeap
		var ref refHeap
		var seq int32
		check := func(op int) {
			got, want := typed.pop(), heap.Pop(&ref).(event)
			if got.at != want.at || got.txn != want.txn {
				t.Fatalf("trial %d, op %d: popped (at %d, #%d), container/heap pops (at %d, #%d)",
					trial, op, got.at, got.txn, want.at, want.txn)
			}
		}
		for op := 0; op < 1000; op++ {
			if len(typed) == 0 || rng.Intn(5) < 3 {
				e := event{at: int64(rng.Intn(spread)), txn: seq}
				seq++
				typed.push(e)
				heap.Push(&ref, e)
				continue
			}
			check(op)
		}
		for op := 0; len(ref) > 0; op++ {
			check(op)
		}
		if len(typed) != 0 {
			t.Fatalf("trial %d: %d events left in the typed heap", trial, len(typed))
		}
	}
}

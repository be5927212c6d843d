package chip

// The system's event queue and the records that flow through it. Nothing
// here is a closure: an event or a packet delivery names what it does with
// a kind and, for a line miss, the index of its pooled transaction record.

// eventKind is what a scheduled event does when it fires.
type eventKind uint8

const (
	evFunc    eventKind = iota // run fn (ScheduleEvent)
	evL3                       // a line request reaches its home L3 slice on the requester's chiplet
	evForward                  // an L3 miss leaves its home slice for the memory controller
	evDRAM                     // the memory controller has read the line
	evRespond                  // the line leaves txn.src for the requesting chiplet
)

type event struct {
	at   int64
	kind eventKind
	txn  int32
	fn   func()
}

// eventHeap is a binary min-heap on at. push and pop are container/heap's
// Push and Pop with its up and down written out for the one element type,
// so events due in the same cycle pop in exactly the order container/heap
// gives them: the simulated statistics depend on that order.
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	*h = q
	j := len(q) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || q[j].at >= q[i].at {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].at < q[j].at {
			j = j2
		}
		if q[j].at >= q[i].at {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	e := q[n]
	q[n] = event{}
	*h = q[:n]
	return e
}

// lineTxn is one line that missed in L2, on its way from the requesting
// core to its home L3 slice, on an L3 miss on to the nearest memory
// controller, and back to the core.
type lineTxn struct {
	core *coreState
	addr uint64
	home int
	mc   int
	src  int // where the response leaves from: home on an L3 hit, else mc
}

// delivery is what a delivered packet sets off.
type delivery uint8

const (
	dlvNone      delivery = iota // a write-back: nothing waits for it
	dlvL3                        // a line request reaches its home L3 slice
	dlvDRAM                      // a forwarded miss reaches the memory controller
	dlvFinish                    // the line reaches the requesting core
	dlvDelivered                 // arrived; kept until every earlier packet has
)

// pending is the delivery awaiting one packet in flight.
type pending struct {
	what delivery
	txn  int32
}

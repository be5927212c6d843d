package chip

// OpKind enumerates the abstract instructions cores execute.
type OpKind int

const (
	// KindMAC executes N multiply-accumulate operations at the core's SIMD
	// MAC throughput.
	KindMAC OpKind = iota
	// KindCompute burns N generic execution cycles (control, encode, ...).
	KindCompute
	// KindAdd executes N plain accumulation adds at SIMD rate (4/cycle) —
	// the partial-sum accumulation work chiplets keep in offload mode.
	KindAdd
	// KindLoadBlock streams Lines consecutive cache lines starting at Addr
	// through the data-cache hierarchy.
	KindLoadBlock
	// KindStoreBlock writes Lines consecutive cache lines (write-allocate;
	// write-back traffic is folded into the line-fill accounting).
	KindStoreBlock
	// KindBarrier waits for all cores to arrive.
	KindBarrier
	// KindOffload hands a compute job to the system's offload handler (the
	// Flumen MZIM control unit); the core blocks until the handler signals
	// completion. Systems without a handler execute the job's fallback MACs
	// locally.
	KindOffload
)

// Op is one abstract instruction.
type Op struct {
	Kind  OpKind
	N     int64  // MACs (KindMAC) or cycles (KindCompute)
	Addr  uint64 // start address for block ops
	Lines int    // block length in cache lines
	Job   any    // offload payload (interpreted by the system's handler)
}

// FallbackJob is implemented by offload payloads that can be executed
// locally when the MZIM control unit rejects the request (Sec 3.4: cores
// compute locally when network utilization is too high).
type FallbackJob interface {
	FallbackMACs() int64
}

// Stream produces a core's op sequence lazily; it returns ok=false when
// exhausted. Implementations must be single-consumer.
type Stream interface {
	Next() (Op, bool)
}

// SliceStream adapts a fixed []Op to a Stream.
type SliceStream struct {
	ops []Op
	i   int
}

// NewSliceStream wraps ops.
func NewSliceStream(ops []Op) *SliceStream { return &SliceStream{ops: ops} }

// Next pops the next op.
func (s *SliceStream) Next() (Op, bool) {
	if s.i >= len(s.ops) {
		return Op{}, false
	}
	op := s.ops[s.i]
	s.i++
	return op, true
}

// EmptyStream is a Stream with no ops (idle core).
type EmptyStream struct{}

// Next always reports exhaustion.
func (EmptyStream) Next() (Op, bool) { return Op{}, false }

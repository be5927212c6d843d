package noc

import "math/bits"

// maxArbiterPorts is the widest crossbar the arbiter schedules: a row or a
// column set is one machine word.
const maxArbiterPorts = 64

// WavefrontArbiter computes maximal matchings for an N×N crossbar request
// matrix, as used by the MZIM control unit (Sec 3.4). Requests are examined
// in diagonal wavefronts; cells on one wavefront are mutually
// conflict-free, so all grantable requests on a wavefront are granted in
// parallel. A rotating priority pointer shifts the starting diagonal each
// invocation for fairness.
//
// The request matrix is one destination bitmask per source, and the cost
// of a call follows the requests, not the N² cells: wave w examines the
// cells (s, (s+priority+w) mod N), so request (s, t) belongs to wave
// (t−s−priority) mod N and to no other. Each request is dropped into its
// wave's bucket (a bitmask of sources), and the non-empty waves are walked
// in ascending order granting where row and column are still free. The
// cells of one wave share no row and no column, so the order inside a
// bucket cannot matter and the grants are exactly those of a scan of every
// cell of every wave (kept as the oracle in wavefront_test.go).
type WavefrontArbiter struct {
	n        int
	priority int
	ports    uint64   // bits 0..n-1
	waves    []uint64 // waves[w]: sources with a request on wave w; zero between calls
}

// NewWavefrontArbiter returns an arbiter for an n×n request matrix
// (1 ≤ n ≤ 64).
func NewWavefrontArbiter(n int) *WavefrontArbiter {
	if n < 1 {
		panic("noc: arbiter size must be positive")
	}
	if n > maxArbiterPorts {
		panic("noc: arbiter schedules at most 64 ports")
	}
	return &WavefrontArbiter{n: n, ports: ^uint64(0) >> uint(maxArbiterPorts-n), waves: make([]uint64, n)}
}

// Arbitrate sets grants[s] to the destination granted to source s, or to
// -1. req[s] has bit d set when s requests destination d (bits from n up
// are ignored); sources in busyRows and destinations in busyCols
// (bitmasks) are already taken and are not granted. The priority diagonal
// rotates on every call.
func (a *WavefrontArbiter) Arbitrate(req []uint64, busyRows, busyCols uint64, grants []int) {
	n := a.n
	if len(req) != n || len(grants) != n {
		panic("noc: request matrix size mismatch")
	}
	var pending uint64 // non-empty waves
	for s, row := range req {
		grants[s] = -1
		if busyRows>>uint(s)&1 != 0 {
			continue
		}
		// first is the wave of column 0; column t is t waves later.
		first := 2*n - s - a.priority
		for row &= a.ports &^ busyCols; row != 0; row &= row - 1 {
			w := (first + bits.TrailingZeros64(row)) % n
			a.waves[w] |= 1 << uint(s)
			pending |= 1 << uint(w)
		}
	}
	for ; pending != 0; pending &= pending - 1 {
		w := bits.TrailingZeros64(pending)
		srcs := a.waves[w] &^ busyRows
		a.waves[w] = 0
		for ; srcs != 0; srcs &= srcs - 1 {
			s := bits.TrailingZeros64(srcs)
			t := (s + a.priority + w) % n
			if busyCols>>uint(t)&1 == 0 {
				grants[s] = t
				busyRows |= 1 << uint(s)
				busyCols |= 1 << uint(t)
			}
		}
	}
	a.priority = (a.priority + 1) % n
}

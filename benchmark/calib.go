package main

import (
	"sort"
	"time"
)

// The box this benchmark was sized on is a share of a bigger machine, and
// how fast that share runs is not its own. With nothing else running in it,
// it changes speed every ten to forty minutes: by a tenth most often, and
// once, within twenty minutes and for an hour, the same single-threaded
// simulation went from 972 000 to 665 000 simulated cycles per second while
// every serving workload lost 18 to 33 % of its throughput. Quiet windows
// and fastest passes remove what lasts a second; nothing computed from one
// run's samples removes that.
//
// So every run reads the machine's speed off a yardstick, just before and
// just after what it times: a fixed piece of work done over and over for
// yardstickFor. The machine's speed is refPiece over the median time of a
// piece in the fastest of the run's readings, and every end-to-end timing is
// reported as what the reference machine, on which a piece takes refPiece,
// would have shown. A piece is a floating-point matrix product followed by
// filling and draining a binary heap of integers: arithmetic that stays in
// registers and cache, then branches that depend on data, the two halves of
// what the simulator and the servers do. It is the benchmark's own and
// touches no code of the repository, so nothing a change does to the
// program moves the yardstick.
//
// Over two stretches of back-to-back runs, 18 and 31 minutes with four
// changes of speed between them, reading timings this way took the
// quartile distance of the 27 timed workload × metric pairs from 23 % to
// 10 % and from 15 % to 9 % of the median on average, and made one pair of
// the 54 worse (README.md). It does not remove the spread, because the
// servers lose up to twice what the yardstick loses when the box slows.
const (
	yardstickFor = 250 * time.Millisecond // 10 ms under -quick
	matDim       = 64                     // the product is matDim³ multiply-adds
	heapLen      = 4096                   // values pushed onto the heap and popped again
	refPiece     = 570 * time.Microsecond // about the fastest this box was seen to do a piece
)

// yardstick keeps the run's readings of the machine's speed.
type yardstick struct {
	readFor  time.Duration
	a, b, c  []float64
	heap     []int32
	readings []time.Duration // median time of a piece, one per reading
}

func newYardstick(quick bool) *yardstick {
	const n = matDim * matDim
	y := &yardstick{readFor: yardstickFor, a: make([]float64, n), b: make([]float64, n), c: make([]float64, n), heap: make([]int32, 0, heapLen)}
	for i := range y.a {
		y.a[i], y.b[i] = float64(i%7)+0.5, float64(i%5)-1.5
	}
	if quick {
		y.readFor = 10 * time.Millisecond
	}
	return y
}

func (y *yardstick) piece() {
	const n = matDim
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += y.a[i*n+k] * y.b[k*n+j]
			}
			y.c[i*n+j] = s
		}
	}
	h := y.heap[:0]
	v := uint32(12345)
	for len(h) < heapLen {
		v = v*1664525 + 1013904223 // the same pseudo-random values every time
		h = append(h, int32(v>>8))
		for c := len(h) - 1; c > 0; {
			parent := (c - 1) / 2
			if h[parent] <= h[c] {
				break
			}
			h[parent], h[c] = h[c], h[parent]
			c = parent
		}
	}
	for len(h) > 0 {
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for c := 0; ; {
			l, r, least := 2*c+1, 2*c+2, c
			if l < len(h) && h[l] < h[least] {
				least = l
			}
			if r < len(h) && h[r] < h[least] {
				least = r
			}
			if least == c {
				break
			}
			h[least], h[c] = h[c], h[least]
			c = least
		}
	}
}

// read does pieces for readFor and keeps the median time of one.
func (y *yardstick) read() {
	var took []time.Duration
	for start := time.Now(); time.Since(start) < y.readFor; {
		t0 := time.Now()
		y.piece()
		took = append(took, time.Since(t0))
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	y.readings = append(y.readings, took[len(took)/2])
}

// speed is how fast the machine ran during the run, as a share of the
// reference machine's speed. Whatever else the box does only ever slows a
// reading, so the fastest one is the machine and the others are the
// neighbours.
func (y *yardstick) speed() float64 {
	fastest := y.readings[0]
	for _, r := range y.readings[1:] {
		fastest = min(fastest, r)
	}
	return ns(refPiece) / ns(fastest)
}

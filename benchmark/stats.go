package main

import (
	"math"
	"sort"
	"time"
)

// percentile is nearest-rank over an ascending-sorted slice: the smallest
// sample with at least p percent of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[percentileRank(len(sorted), p)-1]
}

// percentileRank is the 1-based nearest-rank index of the p-th percentile
// among n samples.
func percentileRank(n int, p float64) int {
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// minTailSamples is how many samples must lie beyond a reported percentile
// for it to be a measurement and not an outlier.
const minTailSamples = 10

// samplesBeyond is how many of n samples lie strictly above the p-th
// nearest-rank percentile.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - percentileRank(n, p)
}

// tailSupported reports whether the p-th percentile of n samples has at
// least minTailSamples samples beyond it.
func tailSupported(n int, p float64) bool { return samplesBeyond(n, p) >= minTailSamples }

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of an unsorted slice (mean of the middle pair for even lengths).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ns(d time.Duration) float64 { return float64(d) }

// timeCalls runs fn(i) for i in [0,n) and returns each call's duration.
func timeCalls(n int, fn func(i int)) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		t0 := time.Now()
		fn(i)
		out[i] = time.Since(t0)
	}
	return out
}

// p50 is the nearest-rank median of a set of durations, in the unit conv
// converts to.
func p50(ds []time.Duration, conv func(time.Duration) float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = conv(d)
	}
	sort.Float64s(xs)
	return percentile(xs, 50)
}

// windows is how many equal slices a timed phase is cut into. Throughput
// and the latency percentiles are taken in each slice and the median of
// the three quietest slices is reported, that is the second best. This box
// stalls whole processes for 20 to 600 ms, in bad minutes every second or
// two; a stall only ever adds time, so the quiet slices are the measurement
// and the rest is the neighbours. Up to three spoiled slices leave the
// figure alone.
const windows = 5

// windowStats is slice k of a timed phase: answers per second from its
// first to its last answer, and the nearest-rank p50 and p95 latency of the
// requests due in it.
type windowStats struct {
	k                  int
	perS, p50MS, p95MS float64
}

// windowed cuts a phase of length dur into n slices; slices nothing was
// answered in are left out.
func windowed(oks []okShot, dur time.Duration, n int) []windowStats {
	width := dur / time.Duration(n)
	dones := make([][]float64, n)
	lats := make([][]float64, n)
	for _, s := range oks {
		if k := int(s.done / width); k < n {
			dones[k] = append(dones[k], s.done.Seconds())
		}
		if k := int(s.due / width); k < n {
			lats[k] = append(lats[k], s.latMS)
		}
	}
	var out []windowStats
	for k := 0; k < n; k++ {
		d, l := dones[k], lats[k]
		if len(d) < 2 || len(l) == 0 {
			continue
		}
		sort.Float64s(d)
		sort.Float64s(l)
		out = append(out, windowStats{
			k:     k,
			perS:  float64(len(d)-1) / (d[len(d)-1] - d[0]),
			p50MS: percentile(l, 50),
			p95MS: percentile(l, 95),
		})
	}
	return out
}

// quietWindow is, for each of the three figures on its own, the second
// best over the slices: the second highest throughput, the second lowest
// p50 and p95. With fewer than three slices it is the best.
func quietWindow(ws []windowStats) windowStats {
	var perS, p50s, p95s []float64
	for _, w := range ws {
		perS, p50s, p95s = append(perS, -w.perS), append(p50s, w.p50MS), append(p95s, w.p95MS)
	}
	second := func(xs []float64) float64 {
		sort.Float64s(xs)
		if len(xs) < 3 {
			return xs[0]
		}
		return xs[1]
	}
	return windowStats{perS: -second(perS), p50MS: second(p50s), p95MS: second(p95s)}
}

package noc

import (
	"fmt"
	"math/rand"
)

// Hotspot returns a pattern where the given fraction of traffic targets a
// single hot node and the remainder is uniform — the traffic shape that
// motivates the scheduler's buffer scan depth ζ (Sec 3.4: a few buffers
// with much higher utilization than the rest).
func Hotspot(n, hot int, fraction float64) Pattern {
	if hot < 0 || hot >= n {
		panic(fmt.Sprintf("noc: hotspot node %d out of range", hot))
	}
	if fraction < 0 || fraction > 1 {
		panic(fmt.Sprintf("noc: hotspot fraction %g outside [0,1]", fraction))
	}
	uni := Uniform(n)
	return Pattern{
		Name: "hotspot",
		Dest: func(src int, rng *rand.Rand) int {
			if src != hot && rng.Float64() < fraction {
				return hot
			}
			return uni.Dest(src, rng)
		},
	}
}

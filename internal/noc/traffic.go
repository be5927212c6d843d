package noc

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Pattern generates destinations for synthetic traffic (Sec 4.1 / Fig 11).
type Pattern struct {
	Name string
	Dest func(src int, rng *rand.Rand) int
}

// Uniform returns the uniform-random pattern over n nodes (destinations
// exclude the source).
func Uniform(n int) Pattern {
	return Pattern{
		Name: "uniform",
		Dest: func(src int, rng *rand.Rand) int {
			d := rng.Intn(n - 1)
			if d >= src {
				d++
			}
			return d
		},
	}
}

// BitReversal returns the bit-reversal permutation pattern: the destination
// is the source's node index with its log2(n) bits reversed. n must be a
// power of two.
func BitReversal(n int) Pattern {
	b := log2Exact(n)
	return Pattern{
		Name: "bitrev",
		Dest: func(src int, _ *rand.Rand) int {
			return int(bits.Reverse32(uint32(src)) >> (32 - b))
		},
	}
}

// Shuffle returns the perfect-shuffle pattern: the destination index is the
// source index rotated left by one bit. n must be a power of two.
func Shuffle(n int) Pattern {
	b := log2Exact(n)
	return Pattern{
		Name: "shuffle",
		Dest: func(src int, _ *rand.Rand) int {
			return ((src << 1) | (src >> (b - 1))) & (n - 1)
		},
	}
}

func log2Exact(n int) int {
	if n < 2 || n&(n-1) != 0 {
		panic(fmt.Sprintf("noc: pattern needs a power-of-two node count, got %d", n))
	}
	return bits.TrailingZeros32(uint32(n))
}

// Transpose returns the matrix-transpose pattern: the destination index
// swaps the high and low halves of the source's bits. n must be a power of
// four (even bit count).
func Transpose(n int) Pattern {
	b := log2Exact(n)
	if b%2 != 0 {
		panic(fmt.Sprintf("noc: transpose needs an even bit count, got %d nodes", n))
	}
	h := b / 2
	mask := (1 << h) - 1
	return Pattern{
		Name: "transpose",
		Dest: func(src int, _ *rand.Rand) int {
			return ((src & mask) << h) | (src >> h)
		},
	}
}

// BitComplement returns the bit-complement pattern: the destination is the
// bitwise complement of the source within log2(n) bits, so every packet
// crosses the network midpoint. n must be a power of two.
func BitComplement(n int) Pattern {
	log2Exact(n)
	return Pattern{
		Name: "bitcomp",
		Dest: func(src int, _ *rand.Rand) int {
			return ^src & (n - 1)
		},
	}
}

// Tornado returns the tornado pattern: each node sends halfway around the
// network, the worst case for rings.
func Tornado(n int) Pattern {
	return Pattern{
		Name: "tornado",
		Dest: func(src int, _ *rand.Rand) int {
			return (src + n/2 - 1) % n
		},
	}
}

// Neighbor returns the nearest-neighbor pattern (dst = src+1 mod n), the
// best case for rings.
func Neighbor(n int) Pattern {
	return Pattern{
		Name: "neighbor",
		Dest: func(src int, _ *rand.Rand) int {
			return (src + 1) % n
		},
	}
}

// AllPatterns returns the full synthetic pattern set for n nodes.
func AllPatterns(n int) []Pattern {
	ps := []Pattern{Uniform(n), BitReversal(n), Shuffle(n), BitComplement(n), Tornado(n), Neighbor(n)}
	if b := log2Exact(n); b%2 == 0 {
		ps = append(ps, Transpose(n))
	}
	return ps
}

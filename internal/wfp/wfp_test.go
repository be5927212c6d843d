package wfp

import (
	"math"
	"math/rand"
	"testing"
)

func TestMatrixDistinguishesContent(t *testing.T) {
	a := [][]float64{{0, 0}, {0, 0}}
	b := [][]float64{{0, 0}, {0, 0}}
	if Matrix(a) != Matrix(b) {
		t.Fatal("identical matrices have different fingerprints")
	}
	b[1][1] = 1e-300
	if Matrix(a) == Matrix(b) {
		t.Fatal("matrices differing by one tiny element share a fingerprint")
	}
}

func TestMatrixEncodesShape(t *testing.T) {
	// Same flat data, different shape: must not collide.
	a := [][]float64{{0, 0, 0}, {0, 0, 0}}
	b := [][]float64{{0, 0}, {0, 0}, {0, 0}}
	if Matrix(a) == Matrix(b) {
		t.Fatal("2×3 and 3×2 zero matrices share a fingerprint")
	}
}

// TestMatrixIsBitExact: the key is the raw bits, not float equality. +0 and
// -0 compare equal but are distinct keys, and so are two NaN payloads; one
// NaN payload is equal to itself although NaN != NaN.
func TestMatrixIsBitExact(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if Matrix([][]float64{{0}}) == Matrix([][]float64{{negZero}}) {
		t.Fatal("+0 and -0 share a fingerprint")
	}
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0x7ff8000000000002)
	if Matrix([][]float64{{nan1}}) == Matrix([][]float64{{nan2}}) {
		t.Fatal("two NaN payloads share a fingerprint")
	}
	if Matrix([][]float64{{nan1}}) != Matrix([][]float64{{nan1}}) {
		t.Fatal("one NaN payload has two fingerprints")
	}
}

// padded returns block (bi, bj) of m zero-padded to multiples of n, as an
// explicit n×n matrix.
func padded(m [][]float64, n, bi, bj int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			if r, c := bi*n+i, bj*n+j; r < len(m) && c < len(m[r]) {
				out[i][j] = m[r][c]
			}
		}
	}
	return out
}

// TestAppendBlockMatchesPaddedMatrix pins the engine's cache key to the
// Matrix key of the explicitly padded block, for every block of a ragged
// 10×7 matrix at block size 4 (edge blocks included) and with a reused
// buffer.
func TestAppendBlockMatchesPaddedMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := make([][]float64, 10)
	for i := range m {
		m[i] = make([]float64, 7)
		for j := range m[i] {
			m[i][j] = rng.NormFloat64()
		}
	}
	m[0][0] = math.Copysign(0, -1)
	m[9][6] = math.NaN()
	var buf []byte
	for bi := 0; bi < 3; bi++ {
		for bj := 0; bj < 2; bj++ {
			buf = AppendBlock(buf[:0], m, 4, bi, bj)
			if string(buf) != Matrix(padded(m, 4, bi, bj)) {
				t.Fatalf("block (%d,%d): AppendBlock differs from Matrix of the padded block", bi, bj)
			}
		}
	}
}

func TestAppendBlockAllocatesNothing(t *testing.T) {
	m := [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	buf := make([]byte, 0, 16+8*4*4)
	if allocs := testing.AllocsPerRun(100, func() { buf = AppendBlock(buf[:0], m, 4, 0, 0) }); allocs != 0 {
		t.Fatalf("AppendBlock with capacity made %v allocations, want 0", allocs)
	}
}

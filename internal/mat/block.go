package mat

import (
	"encoding/binary"
	"math"
)

// This file implements the zero-padding and block-partition machinery of
// Eq. (2) and Eq. (3) in the Flumen paper: an arbitrary n×m matrix M is
// zero-padded to the nearest multiple of the mesh size N along both
// dimensions and divided into N×N sub-blocks; each sub-block is executed as
// one photonic matrix multiplication, and chiplets accumulate the partial
// sums.

// PadTo returns m zero-padded so both dimensions are multiples of n
// (Eq. 2). A matrix already aligned is returned as is, not copied: callers
// treat the result as read-only.
func PadTo(m *Dense, n int) *Dense {
	if n <= 0 {
		panic("mat: PadTo requires positive block size")
	}
	pr := ceilMultiple(m.rows, n)
	pc := ceilMultiple(m.cols, n)
	if pr == m.rows && pc == m.cols {
		return m
	}
	out := New(pr, pc)
	for i := 0; i < m.rows; i++ {
		copy(out.data[i*pc:i*pc+m.cols], m.data[i*m.cols:(i+1)*m.cols])
	}
	return out
}

// PadVec zero-pads x to the nearest multiple of n.
func PadVec(x []complex128, n int) []complex128 {
	p := ceilMultiple(len(x), n)
	out := make([]complex128, p)
	copy(out, x)
	return out
}

func ceilMultiple(x, n int) int {
	if x%n == 0 {
		return x
	}
	return (x/n + 1) * n
}

// Block extracts the n×n sub-block at block-row bi, block-col bj of a
// matrix whose dimensions are multiples of n.
func Block(m *Dense, n, bi, bj int) *Dense {
	out := new(Dense)
	BlockInto(out, m, n, bi, bj)
	return out
}

// BlockInto is Block written into dst, keeping dst's storage when it is
// large enough.
func BlockInto(dst, m *Dense, n, bi, bj int) {
	if m.rows%n != 0 || m.cols%n != 0 {
		panic("mat: Block requires dimensions aligned to the block size")
	}
	dst.rows, dst.cols = n, n
	dst.data = grow(dst.data, n*n)
	for i := 0; i < n; i++ {
		src := (bi*n+i)*m.cols + bj*n
		copy(dst.data[i*n:(i+1)*n], m.data[src:src+n])
	}
}

// Fingerprint returns an exact content key for the matrix: its dimensions
// followed by the raw IEEE-754 bits of every element. Two matrices share a
// fingerprint if and only if they are bit-identical (so ±0 and equal-but-
// differently-rounded values are distinguished — exact, collision-free, and
// conservative). It is the weight-program cache key of the accelerator's
// compute engine.
func (m *Dense) Fingerprint() string {
	b := make([]byte, 0, 16+16*len(m.data))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.rows))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.cols))
	return string(appendBits(b, m.data))
}

// AppendBlockFingerprint appends Block(m, n, bi, bj).Fingerprint() to b
// without materializing the block, so a cache lookup on a resident block
// allocates nothing.
func AppendBlockFingerprint(b []byte, m *Dense, n, bi, bj int) []byte {
	if m.rows%n != 0 || m.cols%n != 0 {
		panic("mat: AppendBlockFingerprint requires dimensions aligned to the block size")
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(n))
	b = binary.LittleEndian.AppendUint64(b, uint64(n))
	for i := 0; i < n; i++ {
		src := (bi*n+i)*m.cols + bj*n
		b = appendBits(b, m.data[src:src+n])
	}
	return b
}

// appendBits appends the raw IEEE-754 bits of every element of vs.
func appendBits(b []byte, vs []complex128) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(real(v)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(imag(v)))
	}
	return b
}

// BlockGrid reports the number of block rows and block columns for matrix m
// partitioned into n×n blocks (after padding).
func BlockGrid(m *Dense, n int) (bi, bj int) {
	return ceilMultiple(m.rows, n) / n, ceilMultiple(m.cols, n) / n
}

// BlockMatVec computes b = M·a by zero-padding M and a to multiples of n,
// partitioning M into n×n blocks, invoking mvm for each block-vector
// product, and accumulating the partial sums (Eq. 3). The mvm callback is
// the photonic (or reference) N×N matrix-vector engine. The result is
// truncated back to the true output length.
func BlockMatVec(m *Dense, a []complex128, n int, mvm func(block *Dense, x []complex128) []complex128) []complex128 {
	if m.cols != len(a) {
		panic("mat: BlockMatVec dimension mismatch")
	}
	pm := PadTo(m, n)
	pa := PadVec(a, n)
	bi := pm.rows / n
	bj := pm.cols / n
	out := make([]complex128, pm.rows)
	for r := 0; r < bi; r++ {
		for c := 0; c < bj; c++ {
			blk := Block(pm, n, r, c)
			seg := pa[c*n : (c+1)*n]
			part := mvm(blk, seg)
			for i := 0; i < n; i++ {
				out[r*n+i] += part[i]
			}
		}
	}
	return out[:m.rows]
}

// BlockMatMul computes C = M·A column-by-column through BlockMatVec. Each
// column of A models one wavelength's input vector in a WDM-parallel
// photonic matrix-matrix product (Sec 3.3.1).
func BlockMatMul(m, a *Dense, n int, mvm func(block *Dense, x []complex128) []complex128) *Dense {
	if m.cols != a.rows {
		panic("mat: BlockMatMul dimension mismatch")
	}
	out := New(m.rows, a.cols)
	for j := 0; j < a.cols; j++ {
		col := BlockMatVec(m, a.Col(j), n, mvm)
		out.SetCol(j, col)
	}
	return out
}

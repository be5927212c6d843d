package mat

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
	if m.rows%n != 0 || m.cols%n != 0 {
		panic("mat: Block requires dimensions aligned to the block size")
	}
	out := New(n, n)
	for i := 0; i < n; i++ {
		src := (bi*n+i)*m.cols + bj*n
		copy(out.data[i*n:(i+1)*n], m.data[src:src+n])
	}
	return out
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

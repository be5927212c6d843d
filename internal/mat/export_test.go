package mat

import (
	"fmt"
	"math"
	"math/cmplx"
)

// BlockCount returns the number of N×N block MVM operations required to
// compute M·a for an n×m matrix with p parallel input vectors, accounting
// for WDM batching: p vectors share one pass through each block.
func BlockCount(rows, cols, n int) int {
	return (ceilMultiple(rows, n) / n) * (ceilMultiple(cols, n) / n)
}

// Diag returns a square matrix with d on the diagonal.
func Diag(d []complex128) *Dense {
	n := len(d)
	m := New(n, n)
	for i, v := range d {
		m.data[i*n+i] = v
	}
	return m
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]complex128) *Dense {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mat: empty row data")
	}
	m := New(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != m.cols {
			panic(fmt.Sprintf("mat: ragged rows: row %d has %d cols, want %d", i, len(row), m.cols))
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], row)
	}
	return m
}

// MaxAbs returns max_ij |a_ij|.
func (m *Dense) MaxAbs() float64 {
	var max float64
	for _, v := range m.data {
		if a := cmplx.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Row returns a copy of row i.
func (m *Dense) Row(i int) []complex128 {
	out := make([]complex128, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Reconstruct multiplies the factors of an SVD back together, returning
// U·diag(Σ)·V* with the dimensions of the original matrix.
func (r SVDResult) Reconstruct() *Dense {
	m := r.U.Rows()
	n := r.V.Rows()
	k := len(r.Sigma)
	s := New(m, n)
	for i := 0; i < k && i < m && i < n; i++ {
		s.data[i*n+i] = complex(r.Sigma[i], 0)
	}
	return Mul(Mul(r.U, s), r.V.Adjoint())
}

// Sub returns a-b.
func Sub(a, b *Dense) *Dense {
	if a.rows != b.rows || a.cols != b.cols {
		panic("mat: Sub dimension mismatch")
	}
	out := New(a.rows, a.cols)
	for i := range a.data {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out
}

// FrobeniusNorm returns sqrt(sum |a_ij|²).
func (m *Dense) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.data {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

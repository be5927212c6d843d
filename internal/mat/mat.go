// Package mat provides the dense complex linear algebra kernel used by the
// photonic simulation layers: matrix products, adjoints, QR factorization,
// a one-sided Jacobi SVD, spectral norms, random unitaries, and the
// zero-padding / block-partition helpers from Eq. (2)-(3) of the Flumen
// paper. Everything is built on complex128 and the standard library only.
package mat

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// Dense is a dense, row-major complex matrix.
type Dense struct {
	rows, cols int
	data       []complex128 // len rows*cols, row-major
}

// New returns a zeroed r×c matrix.
func New(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %d×%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]complex128, r*c)}
}

// FromReal builds a complex matrix from real-valued row data.
func FromReal(rows [][]float64) *Dense {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mat: empty row data")
	}
	m := New(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != m.cols {
			panic(fmt.Sprintf("mat: ragged rows: row %d has %d cols, want %d", i, len(row), m.cols))
		}
		for j, v := range row {
			m.data[i*m.cols+j] = complex(v, 0)
		}
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) complex128 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v complex128) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %d×%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// CopyFrom makes m a deep copy of src, keeping m's storage when it is large
// enough.
func (m *Dense) CopyFrom(src *Dense) {
	m.rows, m.cols = src.rows, src.cols
	m.data = grow(m.data, len(src.data))
	copy(m.data, src.data)
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []complex128 {
	out := make([]complex128, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetCol overwrites column j.
func (m *Dense) SetCol(j int, col []complex128) {
	if len(col) != m.rows {
		panic("mat: SetCol length mismatch")
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = col[i]
	}
}

// Mul returns the matrix product a·b.
func Mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %d×%d · %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product a·x.
func MulVec(a *Dense, x []complex128) []complex128 {
	if a.cols != len(x) {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch %d×%d · %d", a.rows, a.cols, len(x)))
	}
	out := make([]complex128, a.rows)
	for i := 0; i < a.rows; i++ {
		var s complex128
		row := a.data[i*a.cols : (i+1)*a.cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// Adjoint returns the conjugate transpose a*.
func (m *Dense) Adjoint() *Dense {
	out := new(Dense)
	m.AdjointInto(out)
	return out
}

// AdjointInto writes the conjugate transpose a* into dst, keeping dst's
// storage when it is large enough. dst may not be m.
func (m *Dense) AdjointInto(dst *Dense) {
	dst.rows, dst.cols = m.cols, m.rows
	dst.data = grow(dst.data, len(m.data))
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			dst.data[j*dst.cols+i] = cmplx.Conj(m.data[i*m.cols+j])
		}
	}
}

// Transpose returns the (non-conjugated) transpose.
func (m *Dense) Transpose() *Dense {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Scale returns s·a.
func Scale(s complex128, a *Dense) *Dense {
	out := new(Dense)
	ScaleInto(out, s, a)
	return out
}

// ScaleInto writes s·a into dst, keeping dst's storage when it is large
// enough. dst may be a.
func ScaleInto(dst *Dense, s complex128, a *Dense) {
	dst.rows, dst.cols = a.rows, a.cols
	dst.data = grow(dst.data, len(a.data))
	for i, v := range a.data {
		dst.data[i] = s * v
	}
}

// MaxAbsDiff returns max_ij |a_ij - b_ij|.
func MaxAbsDiff(a, b *Dense) float64 {
	if a.rows != b.rows || a.cols != b.cols {
		panic("mat: MaxAbsDiff dimension mismatch")
	}
	var max float64
	for i := range a.data {
		if d := cmplx.Abs(a.data[i] - b.data[i]); d > max {
			max = d
		}
	}
	return max
}

// EqualApprox reports whether all elements of a and b agree within tol.
func EqualApprox(a, b *Dense, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	return MaxAbsDiff(a, b) <= tol
}

// IsUnitary reports whether m*·m ≈ I within tol.
func (m *Dense) IsUnitary(tol float64) bool { return new(Scratch).IsUnitary(m, tol) }

// IsUnitary is Dense.IsUnitary with the product m*·m held in the scratch:
// the same sums in the same order as Mul(m.Adjoint(), m), compared with the
// identity as MaxAbsDiff does.
func (s *Scratch) IsUnitary(m *Dense, tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	n := m.rows
	s.prod.Reset(n, n)
	for i := 0; i < n; i++ {
		orow := s.prod.data[i*n:][:n]
		for k := 0; k < n; k++ {
			av := cmplx.Conj(m.data[k*n+i])
			if av == 0 {
				continue
			}
			for j, bv := range m.data[k*n:][:n] {
				orow[j] += av * bv
			}
		}
	}
	for i, v := range s.prod.data {
		var id complex128
		if i/n == i%n {
			id = 1
		}
		if AbsExceeds(v-id, tol) {
			return false
		}
	}
	return tol >= 0 // as MaxAbsDiff's maximum, which starts at 0, would compare
}

// AbsExceeds reports cmplx.Abs(v) > tol. Entries far inside the tolerance —
// every entry of a matrix that passes a residual or unitarity check — are
// decided from their parts, since |v| ≤ |re| + |im|, without the hypot.
func AbsExceeds(v complex128, tol float64) bool {
	if math.Abs(real(v)) <= tol/2 && math.Abs(imag(v)) <= tol/2 {
		return false
	}
	return cmplx.Abs(v) > tol
}

// MaxAbsPart returns the largest |real| or |imaginary| part of any element:
// unlike MaxAbs it never squares, so it is exact at every magnitude. A NaN
// part makes the result NaN, an infinite one +Inf.
func (m *Dense) MaxAbsPart() float64 {
	var max float64
	for _, v := range m.data {
		for _, a := range [2]float64{math.Abs(real(v)), math.Abs(imag(v))} {
			if a > max || a != a {
				max = a
			}
		}
	}
	return max
}

// LdexpInto writes a·2^exp into dst, exact but for parts that leave the
// float64 range, keeping dst's storage when it is large enough.
func LdexpInto(dst, a *Dense, exp int) {
	dst.rows, dst.cols = a.rows, a.cols
	dst.data = grow(dst.data, len(a.data))
	for i, v := range a.data {
		dst.data[i] = complex(math.Ldexp(real(v), exp), math.Ldexp(imag(v), exp))
	}
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.cols; j++ {
			v := m.data[i*m.cols+j]
			fmt.Fprintf(&b, " %6.3f%+6.3fi", real(v), imag(v))
		}
		b.WriteString(" ]\n")
	}
	return b.String()
}

// VecNorm returns the Euclidean norm of x.
func VecNorm(x []complex128) float64 {
	var s float64
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// VecDot returns the inner product x*·y (conjugating x).
func VecDot(x, y []complex128) complex128 {
	if len(x) != len(y) {
		panic("mat: VecDot length mismatch")
	}
	var s complex128
	for i := range x {
		s += cmplx.Conj(x[i]) * y[i]
	}
	return s
}

// VecMaxAbsDiff returns max_i |x_i - y_i|.
func VecMaxAbsDiff(x, y []complex128) float64 {
	if len(x) != len(y) {
		panic("mat: VecMaxAbsDiff length mismatch")
	}
	var max float64
	for i := range x {
		if d := cmplx.Abs(x[i] - y[i]); d > max {
			max = d
		}
	}
	return max
}

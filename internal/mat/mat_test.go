package mat

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDimensions(t *testing.T) {
	m := New(3, 5)
	if m.Rows() != 3 || m.Cols() != 5 {
		t.Fatalf("got %d×%d, want 3×5", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("New matrix not zeroed at (%d,%d)", i, j)
			}
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestSetAt(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 1, 3+4i)
	if m.At(0, 1) != 3+4i {
		t.Fatalf("Set/At roundtrip failed: %v", m.At(0, 1))
	}
	if m.At(1, 0) != 0 {
		t.Fatalf("Set leaked into other elements")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	m := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	m.At(2, 0)
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]complex128{{1, 2}, {3}})
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(4) wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandomDense(4, 6, rng)
	if !EqualApprox(Mul(Identity(4), a), a, 1e-15) {
		t.Fatal("I·A != A")
	}
	if !EqualApprox(Mul(a, Identity(6)), a, 1e-15) {
		t.Fatal("A·I != A")
	}
}

func TestMulKnown(t *testing.T) {
	a := FromReal([][]float64{{1, 2}, {3, 4}})
	b := FromReal([][]float64{{5, 6}, {7, 8}})
	want := FromReal([][]float64{{19, 22}, {43, 50}})
	if !EqualApprox(Mul(a, b), want, 1e-14) {
		t.Fatalf("Mul wrong:\n%v", Mul(a, b))
	}
}

func TestMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mul with mismatched dims did not panic")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandomDense(5, 7, rng)
	x := make([]complex128, 7)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	xm := New(7, 1)
	xm.SetCol(0, x)
	want := Mul(a, xm)
	got := MulVec(a, x)
	for i := range got {
		if cmplx.Abs(got[i]-want.At(i, 0)) > 1e-12 {
			t.Fatalf("MulVec disagrees with Mul at %d", i)
		}
	}
}

func TestAdjointInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := RandomDense(3, 5, rng)
	if !EqualApprox(a.Adjoint().Adjoint(), a, 0) {
		t.Fatal("(A*)* != A")
	}
}

func TestAdjointOfProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := RandomDense(3, 4, rng)
	b := RandomDense(4, 5, rng)
	lhs := Mul(a, b).Adjoint()
	rhs := Mul(b.Adjoint(), a.Adjoint())
	if !EqualApprox(lhs, rhs, 1e-12) {
		t.Fatal("(AB)* != B*A*")
	}
}

func TestTransposeConjAdjointRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := RandomDense(4, 3, rng)
	if !EqualApprox(a.Transpose().Conj(), a.Adjoint(), 0) {
		t.Fatal("conj(transpose(A)) != adjoint(A)")
	}
}

func TestAddSubScale(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := RandomDense(3, 3, rng)
	b := RandomDense(3, 3, rng)
	if !EqualApprox(Sub(Add(a, b), b), a, 1e-13) {
		t.Fatal("A+B-B != A")
	}
	if !EqualApprox(Scale(2, a), Add(a, a), 1e-13) {
		t.Fatal("2A != A+A")
	}
}

func TestRowColRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := RandomDense(4, 4, rng)
	c := New(4, 4)
	for j := 0; j < 4; j++ {
		c.SetCol(j, a.Col(j))
	}
	if !EqualApprox(a, c, 0) {
		t.Fatal("Col/SetCol roundtrip failed")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := Identity(2)
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone is shallow")
	}
}

func TestRandomUnitaryIsUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 2, 3, 4, 8, 16} {
		u := RandomUnitary(n, rng)
		if !u.IsUnitary(1e-11) {
			t.Fatalf("RandomUnitary(%d) not unitary: err=%g", n,
				MaxAbsDiff(Mul(u.Adjoint(), u), Identity(n)))
		}
	}
}

func TestQRFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{2, 4, 7} {
		a := RandomDense(n, n, rng)
		q, r := QR(a)
		if !q.IsUnitary(1e-11) {
			t.Fatalf("Q not unitary for n=%d", n)
		}
		if !EqualApprox(Mul(q, r), a, 1e-11) {
			t.Fatalf("QR != A for n=%d", n)
		}
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				if cmplx.Abs(r.At(i, j)) > 1e-11 {
					t.Fatalf("R not upper triangular at (%d,%d): %v", i, j, r.At(i, j))
				}
			}
		}
	}
}

func TestQRTallMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := RandomDense(6, 3, rng)
	q, r := QR(a)
	if !q.IsUnitary(1e-11) {
		t.Fatal("Q not unitary for tall matrix")
	}
	if !EqualApprox(Mul(q, r), a, 1e-11) {
		t.Fatal("QR != A for tall matrix")
	}
}

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range [][2]int{{2, 2}, {4, 4}, {8, 8}, {6, 3}, {3, 6}, {16, 16}} {
		a := RandomDense(dims[0], dims[1], rng)
		r := SVD(a)
		if !r.U.IsUnitary(1e-10) {
			t.Fatalf("U not unitary for %v", dims)
		}
		if !r.V.IsUnitary(1e-10) {
			t.Fatalf("V not unitary for %v", dims)
		}
		if !EqualApprox(r.Reconstruct(), a, 1e-9) {
			t.Fatalf("SVD reconstruction failed for %v: err=%g", dims,
				MaxAbsDiff(r.Reconstruct(), a))
		}
		for i := 1; i < len(r.Sigma); i++ {
			if r.Sigma[i] > r.Sigma[i-1]+1e-12 {
				t.Fatalf("singular values not sorted for %v: %v", dims, r.Sigma)
			}
		}
		for _, s := range r.Sigma {
			if s < 0 {
				t.Fatalf("negative singular value for %v", dims)
			}
		}
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// A rank-1 4×4 matrix: outer product.
	a := New(4, 4)
	u := []complex128{1, 2, 3, 4}
	v := []complex128{1, -1, 1, -1}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			a.Set(i, j, u[i]*v[j])
		}
	}
	r := SVD(a)
	if !EqualApprox(r.Reconstruct(), a, 1e-10) {
		t.Fatal("rank-deficient reconstruction failed")
	}
	if !r.U.IsUnitary(1e-10) {
		t.Fatal("U not unitary (basis completion failed)")
	}
	nonzero := 0
	for _, s := range r.Sigma {
		if s > 1e-10 {
			nonzero++
		}
	}
	if nonzero != 1 {
		t.Fatalf("expected rank 1, got %d nonzero singular values: %v", nonzero, r.Sigma)
	}
}

func TestSVDZeroMatrix(t *testing.T) {
	a := New(3, 3)
	r := SVD(a)
	for _, s := range r.Sigma {
		if s != 0 {
			t.Fatalf("zero matrix has nonzero singular value %g", s)
		}
	}
	if !r.U.IsUnitary(1e-10) || !r.V.IsUnitary(1e-10) {
		t.Fatal("zero matrix factors not unitary")
	}
}

func TestSVDOfUnitaryHasUnitSingularValues(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	u := RandomUnitary(6, rng)
	r := SVD(u)
	for _, s := range r.Sigma {
		if math.Abs(s-1) > 1e-10 {
			t.Fatalf("unitary matrix singular value %g != 1", s)
		}
	}
}

func TestSpectralNormKnown(t *testing.T) {
	// diag(3, 1) has spectral norm 3.
	a := Diag([]complex128{3, 1})
	if n := SpectralNorm(a); math.Abs(n-3) > 1e-12 {
		t.Fatalf("SpectralNorm(diag(3,1)) = %g, want 3", n)
	}
}

func TestSpectralNormScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := RandomDense(5, 5, rng)
	n := SpectralNorm(a)
	scaled := Scale(complex(1/n, 0), a)
	if sn := SpectralNorm(scaled); math.Abs(sn-1) > 1e-10 {
		t.Fatalf("scaled spectral norm %g != 1", sn)
	}
}

func TestPadTo(t *testing.T) {
	a := FromReal([][]float64{{1, 2, 3}, {4, 5, 6}})
	p := PadTo(a, 4)
	if p.Rows() != 4 || p.Cols() != 4 {
		t.Fatalf("PadTo(2×3, 4) = %d×%d, want 4×4", p.Rows(), p.Cols())
	}
	if p.At(0, 0) != 1 || p.At(1, 2) != 6 {
		t.Fatal("PadTo corrupted original data")
	}
	if p.At(3, 3) != 0 || p.At(2, 0) != 0 || p.At(0, 3) != 0 {
		t.Fatal("PadTo padding not zero")
	}
	// Aligned matrices should be unchanged in shape.
	q := PadTo(New(4, 8), 4)
	if q.Rows() != 4 || q.Cols() != 8 {
		t.Fatal("PadTo changed aligned dimensions")
	}
}

func TestPadToReturnsAlignedMatrixUncopied(t *testing.T) {
	m := New(4, 8)
	if PadTo(m, 4) != m {
		t.Fatal("PadTo copied a matrix that was already aligned")
	}
}

func TestBlockExtraction(t *testing.T) {
	a := New(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			a.Set(i, j, complex(float64(10*i+j), 0))
		}
	}
	b := Block(a, 2, 1, 0)
	if b.At(0, 0) != 20 || b.At(1, 1) != 31 {
		t.Fatalf("Block extraction wrong:\n%v", b)
	}
}

func TestBlockMatVecMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, dims := range [][2]int{{4, 4}, {7, 5}, {10, 13}, {3, 9}} {
		m := RandomDense(dims[0], dims[1], rng)
		x := make([]complex128, dims[1])
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := MulVec(m, x)
		got := BlockMatVec(m, x, 4, func(blk *Dense, seg []complex128) []complex128 {
			return MulVec(blk, seg)
		})
		if VecMaxAbsDiff(got, want) > 1e-11 {
			t.Fatalf("BlockMatVec mismatch for %v: %g", dims, VecMaxAbsDiff(got, want))
		}
	}
}

func TestBlockCount(t *testing.T) {
	// 1000×4096 matrix in 8×8 blocks: 125 × 512 blocks.
	if got := BlockCount(1000, 4096, 8); got != 125*512 {
		t.Fatalf("BlockCount(1000,4096,8) = %d, want %d", got, 125*512)
	}
	if got := BlockCount(4, 4, 8); got != 1 {
		t.Fatalf("BlockCount(4,4,8) = %d, want 1", got)
	}
}

func TestVecHelpers(t *testing.T) {
	x := []complex128{3, 4}
	if math.Abs(VecNorm(x)-5) > 1e-15 {
		t.Fatalf("VecNorm([3,4]) = %g", VecNorm(x))
	}
	y := []complex128{1i, 1}
	// <y,x> = conj(i)*3 + 1*4 = 4 - 3i
	if d := VecDot(y, x); cmplx.Abs(d-(4-3i)) > 1e-15 {
		t.Fatalf("VecDot = %v", d)
	}
}

// Property-based tests on core invariants.

func TestPropertyMulAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		a := RandomDense(n, n, rng)
		b := RandomDense(n, n, rng)
		c := RandomDense(n, n, rng)
		return EqualApprox(Mul(Mul(a, b), c), Mul(a, Mul(b, c)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropertyUnitaryPreservesNorm(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(7)
		u := RandomUnitary(n, r)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		return math.Abs(VecNorm(MulVec(u, x))-VecNorm(x)) < 1e-9*math.Max(1, VecNorm(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertySVDSigmaMaxIsSpectralNorm(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		a := RandomDense(n, n, r)
		res := SVD(a)
		// ||A x|| <= sigma_max ||x|| for random x, with equality achieved by
		// the top right singular vector.
		v0 := res.V.Col(0)
		ax := MulVec(a, v0)
		return math.Abs(VecNorm(ax)-res.Sigma[0]) < 1e-8*math.Max(1, res.Sigma[0])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyPadBlockRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(12)
		cols := 1 + r.Intn(12)
		n := 2 + r.Intn(4)
		a := RandomDense(rows, cols, r)
		p := PadTo(a, n)
		bi, bj := BlockGrid(a, n)
		if p.Rows() != bi*n || p.Cols() != bj*n {
			return false
		}
		// Reassemble from blocks and compare the top-left region.
		for r2 := 0; r2 < bi; r2++ {
			for c2 := 0; c2 < bj; c2++ {
				blk := Block(p, n, r2, c2)
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if blk.At(i, j) != p.At(r2*n+i, c2*n+j) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Conj returns the element-wise complex conjugate.
func (m *Dense) Conj() *Dense {
	out := New(m.rows, m.cols)
	for i, v := range m.data {
		out.data[i] = cmplx.Conj(v)
	}
	return out
}

// Add returns a+b.
func Add(a, b *Dense) *Dense {
	if a.rows != b.rows || a.cols != b.cols {
		panic("mat: Add dimension mismatch")
	}
	out := New(a.rows, a.cols)
	for i := range a.data {
		out.data[i] = a.data[i] + b.data[i]
	}
	return out
}

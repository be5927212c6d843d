package mat

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
)

// seedSVD is the SVD of commit e4d4751, kept verbatim as the bitwise oracle
// for Scratch.SVD and Scratch.SpectralNorm. It computes the full singular value decomposition of a using one-sided
// Jacobi rotations. The implementation handles arbitrary (including
// rank-deficient) complex matrices; for m < n it decomposes the adjoint and
// swaps the factors.
func seedSVD(a *Dense) SVDResult {
	if a.rows < a.cols {
		r := seedSVD(a.Adjoint())
		return SVDResult{U: r.V, Sigma: r.Sigma, V: r.U}
	}
	m, n := a.rows, a.cols
	w := a.Clone()   // working copy; columns converge to U·Σ
	v := Identity(n) // accumulates right rotations
	// Columns whose norm falls below nullFloor·‖A‖_F are numerically zero;
	// they are cleared at sweep boundaries so that rotations never operate
	// on subnormal noise (where gamma/|gamma| loses unit modulus and would
	// silently de-unitarize V).
	fro := a.FrobeniusNorm()
	nullFloor := 1e-15 * fro
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		for q := 0; q < n; q++ {
			var norm2 float64
			for i := 0; i < m; i++ {
				x := w.data[i*n+q]
				norm2 += real(x)*real(x) + imag(x)*imag(x)
			}
			if norm2 < nullFloor*nullFloor {
				for i := 0; i < m; i++ {
					w.data[i*n+q] = 0
				}
			}
		}
		converged := true
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var alpha, beta float64
				var gamma complex128
				for i := 0; i < m; i++ {
					ap := w.data[i*n+p]
					aq := w.data[i*n+q]
					alpha += real(ap)*real(ap) + imag(ap)*imag(ap)
					beta += real(aq)*real(aq) + imag(aq)*imag(aq)
					gamma += cmplx.Conj(ap) * aq
				}
				g := cmplx.Abs(gamma)
				// sqrt(alpha)·sqrt(beta) avoids underflow of the product.
				if g == 0 || g <= svdTol*math.Sqrt(alpha)*math.Sqrt(beta) {
					continue
				}
				converged = false
				// Absorb the phase of gamma into column q so the remaining
				// rotation is real.
				phase := gamma / complex(g, 0)
				// Real Jacobi rotation nulling the (p,q) inner product.
				tau := (beta - alpha) / (2 * g)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				cc := complex(c, 0)
				cs := complex(s, 0)
				conjPhase := cmplx.Conj(phase)
				for i := 0; i < m; i++ {
					ap := w.data[i*n+p]
					aq := w.data[i*n+q] * conjPhase
					w.data[i*n+p] = cc*ap - cs*aq
					w.data[i*n+q] = cs*ap + cc*aq
				}
				for i := 0; i < n; i++ {
					vp := v.data[i*n+p]
					vq := v.data[i*n+q] * conjPhase
					v.data[i*n+p] = cc*vp - cs*vq
					v.data[i*n+q] = cs*vp + cc*vq
				}
			}
		}
		if converged {
			break
		}
	}
	// Extract singular values and left vectors.
	type sv struct {
		sigma float64
		idx   int
	}
	svs := make([]sv, n)
	for j := 0; j < n; j++ {
		var norm float64
		for i := 0; i < m; i++ {
			x := w.data[i*n+j]
			norm += real(x)*real(x) + imag(x)*imag(x)
		}
		svs[j] = sv{sigma: math.Sqrt(norm), idx: j}
	}
	sort.SliceStable(svs, func(i, j int) bool { return svs[i].sigma > svs[j].sigma })

	u := New(m, m)
	sigma := make([]float64, n)
	vOut := New(n, n)
	// Scale threshold below which a column is treated as numerically null.
	maxSigma := svs[0].sigma
	nullTol := 1e-13 * maxSigma
	rank := 0
	for k, e := range svs {
		sigma[k] = e.sigma
		for i := 0; i < n; i++ {
			vOut.data[i*n+k] = v.data[i*n+e.idx]
		}
		if e.sigma > nullTol && e.sigma > 0 {
			inv := complex(1/e.sigma, 0)
			for i := 0; i < m; i++ {
				u.data[i*m+k] = w.data[i*n+e.idx] * inv
			}
			rank++
		} else {
			sigma[k] = 0
		}
	}
	seedCompleteBasis(u, rank)
	return SVDResult{U: u, Sigma: sigma, V: vOut}
}

// seedCompleteBasis fills columns rank..m-1 of the m×m matrix u with an
// orthonormal completion of the first rank columns (modified Gram-Schmidt
// against canonical basis candidates).
func seedCompleteBasis(u *Dense, rank int) {
	m := u.rows
	col := rank
	for cand := 0; cand < m && col < m; cand++ {
		// Start from the canonical basis vector e_cand.
		vec := make([]complex128, m)
		vec[cand] = 1
		// Orthogonalize against all previously established columns, twice
		// for numerical stability.
		for pass := 0; pass < 2; pass++ {
			for j := 0; j < col; j++ {
				var dot complex128
				for i := 0; i < m; i++ {
					dot += cmplx.Conj(u.data[i*m+j]) * vec[i]
				}
				for i := 0; i < m; i++ {
					vec[i] -= dot * u.data[i*m+j]
				}
			}
		}
		norm := VecNorm(vec)
		if norm < 1e-7 {
			continue // candidate was (nearly) in the span; try the next one
		}
		inv := complex(1/norm, 0)
		for i := 0; i < m; i++ {
			u.data[i*m+col] = vec[i] * inv
		}
		col++
	}
	if col < m {
		panic("mat: failed to complete orthonormal basis")
	}
}

// seedSpectralNorm is the seed's SpectralNorm: Sigma[0] of a full SVD.
func seedSpectralNorm(a *Dense) float64 {
	r := seedSVD(a)
	if len(r.Sigma) == 0 {
		return 0
	}
	return r.Sigma[0]
}

// seedIsUnitary is the seed's Dense.IsUnitary.
func seedIsUnitary(m *Dense, tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	return EqualApprox(Mul(m.Adjoint(), m), Identity(m.rows), tol)
}

func sameBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// oracleMatrices returns seeded matrices of every kind the compile path
// meets: real-valued (signed-zero imaginary lanes), complex, rank-deficient,
// all-zero, with ±0 entries, square, tall and wide.
func oracleMatrices(rng *rand.Rand, count int) []*Dense {
	var out []*Dense
	for len(out) < count {
		m, n := 1+rng.Intn(10), 1+rng.Intn(10)
		if rng.Intn(2) == 0 {
			n = m
		}
		a := New(m, n)
		switch kind := rng.Intn(6); kind {
		case 0: // complex
			a = RandomDense(m, n, rng)
		case 1: // real
			a = RandomReal(m, n, rng)
		case 2: // all-zero
		case 3: // rank-deficient real: repeated and zero columns
			a = RandomReal(m, n, rng)
			for j := 1; j < n; j += 2 {
				for i := 0; i < m; i++ {
					a.data[i*n+j] = a.data[i*n+(j-1)] * complex(float64(rng.Intn(3)), 0)
				}
			}
		case 4: // sparse with signed zeros
			for i := range a.data {
				switch rng.Intn(4) {
				case 0:
					a.data[i] = complex(rng.NormFloat64(), 0)
				case 1:
					a.data[i] = complex(math.Copysign(0, -1), 0)
				case 2:
					a.data[i] = complex(0, math.Copysign(0, -1))
				}
			}
		case 5: // wide magnitudes inside the safe band
			for i := range a.data {
				a.data[i] = complex(math.Ldexp(rng.NormFloat64(), rng.Intn(200)-100), 0)
			}
		}
		out = append(out, a)
	}
	return out
}

// TestSVDMatchesSeedBitwise pins Scratch.SVD (one scratch reused across
// every matrix, so stale storage would show) to the seed's SVD bit for bit.
func TestSVDMatchesSeedBitwise(t *testing.T) {
	var s Scratch
	for i, a := range oracleMatrices(rand.New(rand.NewSource(71)), 3000) {
		want := seedSVD(a)
		got := s.SVD(a)
		if got.U.rows != want.U.rows || got.V.rows != want.V.rows ||
			!sameBits(got.U.data, want.U.data) || !sameBits(got.V.data, want.V.data) {
			t.Fatalf("matrix %d (%d×%d): factors differ from the seed's", i, a.rows, a.cols)
		}
		if len(got.Sigma) != len(want.Sigma) {
			t.Fatalf("matrix %d: %d singular values, want %d", i, len(got.Sigma), len(want.Sigma))
		}
		for k := range want.Sigma {
			if math.Float64bits(got.Sigma[k]) != math.Float64bits(want.Sigma[k]) {
				t.Fatalf("matrix %d: Sigma[%d] = %x, want %x", i, k, got.Sigma[k], want.Sigma[k])
			}
		}
	}
}

// TestSpectralNormMatchesSVDBitwise pins the values-only norm to Sigma[0]
// of the seed's full SVD, including wide (m < n) and rank-0 matrices.
func TestSpectralNormMatchesSVDBitwise(t *testing.T) {
	var s Scratch
	ms := oracleMatrices(rand.New(rand.NewSource(72)), 3000)
	ms = append(ms, New(3, 7), New(7, 3), New(1, 1), RandomReal(2, 9, rand.New(rand.NewSource(1))))
	for i, a := range ms {
		want := seedSpectralNorm(a)
		if got := s.SpectralNorm(a); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("matrix %d (%d×%d): Scratch.SpectralNorm = %x, want %x", i, a.rows, a.cols, got, want)
		}
		if got := SpectralNorm(a); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("matrix %d (%d×%d): SpectralNorm = %x, want %x", i, a.rows, a.cols, got, want)
		}
	}
}

// TestIsUnitaryMatchesSeedVerdict checks the scratch product reaches the
// seed's verdict on unitaries, near-unitaries at the tolerance and
// non-unitaries.
func TestIsUnitaryMatchesSeedVerdict(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	var s Scratch
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(10)
		u := RandomUnitary(n, rng)
		switch i % 4 {
		case 1:
			u.data[rng.Intn(n*n)] += complex(math.Ldexp(rng.Float64(), -rng.Intn(40)), 0)
		case 2:
			u = RandomDense(n, n, rng)
		case 3:
			u = seedSVD(RandomReal(n, n, rng)).U
		}
		for _, tol := range []float64{1e-8, 1e-11} {
			if got, want := s.IsUnitary(u, tol), seedIsUnitary(u, tol); got != want {
				t.Fatalf("case %d (n=%d, tol=%g): IsUnitary = %v, seed says %v", i, n, tol, got, want)
			}
		}
	}
}

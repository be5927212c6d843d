package mat

import (
	"math"
	"math/cmplx"
)

// SVDResult holds a full singular value decomposition a = U·diag(Σ)·V*.
// U is m×m unitary, V is n×n unitary, and Sigma holds min(m,n)
// non-negative singular values in descending order.
type SVDResult struct {
	U     *Dense
	Sigma []float64
	V     *Dense
}

// svdTol is the relative off-diagonal tolerance at which the one-sided
// Jacobi sweep is considered converged.
const svdTol = 1e-14

// Scratch holds the working storage of SVD, SpectralNorm and IsUnitary, so
// that a caller decomposing many blocks (the photonic block compiler)
// allocates it once. The zero value is ready to use. Everything a method
// returns aliases the scratch and is valid until the next call on it; a
// Scratch is not safe for concurrent use.
type Scratch struct {
	// wt and vt hold the Jacobi working matrix and the accumulated right
	// rotations column by column (column j at [j*rows, (j+1)*rows)), so
	// that every rotation sweeps two contiguous runs.
	wt, vt []complex128
	order  []sigmaIdx
	vec    []complex128 // completeBasis candidate
	sigma  []float64
	u, v   Dense
	prod   Dense // IsUnitary's m*·m
}

// sigmaIdx is one column norm of the converged working matrix and the
// column it came from.
type sigmaIdx struct {
	sigma float64
	idx   int
}

// grow returns s resliced to n elements, reallocating only when its
// capacity is short. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Reset makes m a zeroed r×c matrix, keeping its storage when it is large
// enough.
func (m *Dense) Reset(r, c int) {
	if r <= 0 || c <= 0 {
		panic("mat: invalid dimensions")
	}
	m.rows, m.cols = r, c
	m.data = grow(m.data, r*c)
	clear(m.data)
}

// SVD computes the full singular value decomposition of a using one-sided
// Jacobi rotations. The implementation handles arbitrary (including
// rank-deficient) complex matrices; for m < n it decomposes the adjoint and
// swaps the factors.
func SVD(a *Dense) SVDResult { return new(Scratch).SVD(a) }

// SVD is the package-level SVD with its factors and working storage held in
// the scratch.
func (s *Scratch) SVD(a *Dense) SVDResult {
	adjoint := a.rows < a.cols
	m, n := s.load(a, adjoint)
	s.vt = grow(s.vt, n*n)
	clear(s.vt)
	for j := 0; j < n; j++ {
		s.vt[j*n+j] = 1
	}
	jacobi(s.wt, s.vt, m, n)
	s.sortColumns(m, n)

	wt, vt := s.wt, s.vt
	s.u.Reset(m, m)
	s.v.Reset(n, n)
	s.sigma = grow(s.sigma, n)
	u, v, sigma := s.u.data, s.v.data, s.sigma
	// Scale threshold below which a column is treated as numerically null.
	nullTol := 1e-13 * s.order[0].sigma
	rank := 0
	for k, e := range s.order {
		sigma[k] = e.sigma
		vcol := vt[e.idx*n:][:n]
		for i, x := range vcol {
			v[i*n+k] = x
		}
		if e.sigma > nullTol && e.sigma > 0 {
			inv := complex(1/e.sigma, 0)
			wcol := wt[e.idx*m:][:m]
			for i, x := range wcol {
				u[i*m+k] = x * inv
			}
			rank++
		} else {
			sigma[k] = 0
		}
	}
	s.vec = grow(s.vec, m)
	completeBasis(&s.u, rank, s.vec)
	if adjoint {
		return SVDResult{U: &s.v, Sigma: sigma, V: &s.u}
	}
	return SVDResult{U: &s.u, Sigma: sigma, V: &s.v}
}

// SpectralNorm returns the largest singular value of a (its operator
// 2-norm), used to scale matrices for SVD-mesh implementability (Sec 3.3.1).
func SpectralNorm(a *Dense) float64 { return new(Scratch).SpectralNorm(a) }

// SpectralNorm is the package-level SpectralNorm run in the scratch. It
// makes SVD's Jacobi pass on the working matrix alone: the rotations never
// read V, so the column norms — and with them Sigma[0] — come out
// bit-identical without accumulating V or extracting U.
func (s *Scratch) SpectralNorm(a *Dense) float64 {
	m, n := s.load(a, a.rows < a.cols)
	jacobi(s.wt, nil, m, n)
	var max float64
	for j := 0; j < n; j++ {
		if sigma := math.Sqrt(norm2(s.wt[j*m:][:m])); sigma > max {
			max = sigma
		}
	}
	return max
}

// load copies a (its adjoint when adjoint is set) into s.wt column by
// column and returns the dimensions of the matrix loaded.
func (s *Scratch) load(a *Dense, adjoint bool) (m, n int) {
	m, n = a.rows, a.cols
	if adjoint {
		m, n = n, m
	}
	s.wt = grow(s.wt, m*n)
	for j := 0; j < n; j++ {
		col := s.wt[j*m:][:m]
		if adjoint {
			for i := range col {
				col[i] = cmplx.Conj(a.data[j*a.cols+i])
			}
		} else {
			for i := range col {
				col[i] = a.data[i*a.cols+j]
			}
		}
	}
	return m, n
}

// norm2 returns the squared Euclidean norm of x.
func norm2(x []complex128) float64 {
	var s float64
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return s
}

// jacobi orthogonalizes the n columns of the m×n matrix stored column by
// column in wt with one-sided Jacobi rotations; on return the columns are
// U·Σ in some order. When vt is non-nil it holds an n×n matrix in the same
// layout and receives the same rotations.
func jacobi(wt, vt []complex128, m, n int) {
	// Columns whose norm falls below nullFloor·‖A‖_F are numerically zero;
	// they are cleared at sweep boundaries so that rotations never operate
	// on subnormal noise (where gamma/|gamma| loses unit modulus and would
	// silently de-unitarize V).
	var fro2 float64
	for i := 0; i < m; i++ { // row by row, the order of FrobeniusNorm
		for j := 0; j < n; j++ {
			x := wt[j*m+i]
			fro2 += real(x)*real(x) + imag(x)*imag(x)
		}
	}
	nullFloor := 1e-15 * math.Sqrt(fro2)
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		for q := 0; q < n; q++ {
			if col := wt[q*m:][:m]; norm2(col) < nullFloor*nullFloor {
				clear(col)
			}
		}
		converged := true
		for p := 0; p < n-1; p++ {
			wp := wt[p*m:][:m]
			for q := p + 1; q < n; q++ {
				wq := wt[q*m:][:m]
				var alpha, beta float64
				var gamma complex128
				for i, ap := range wp {
					aq := wq[i]
					alpha += real(ap)*real(ap) + imag(ap)*imag(ap)
					beta += real(aq)*real(aq) + imag(aq)*imag(aq)
					gamma += cmplx.Conj(ap) * aq
				}
				// |γ|; for real-valued matrices γ is real and Hypot(x, ±0)
				// is |x| exactly, without the division and square root.
				g := math.Abs(real(gamma))
				if imag(gamma) != 0 {
					g = cmplx.Abs(gamma)
				}
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
				rot := rotation{cc: complex(c, 0), cs: complex(c*t, 0), conjPhase: cmplx.Conj(phase)}
				rot.apply(wp, wq)
				if vt != nil {
					rot.apply(vt[p*n:][:n], vt[q*n:][:n])
				}
			}
		}
		if converged {
			break
		}
	}
}

// rotation is one Jacobi step on a column pair: column q is turned by
// conjPhase, then the pair by the real rotation (c, s).
type rotation struct{ cc, cs, conjPhase complex128 }

func (r rotation) apply(xp, xq []complex128) {
	for i, ap := range xp {
		aq := xq[i] * r.conjPhase
		xp[i] = r.cc*ap - r.cs*aq
		xq[i] = r.cs*ap + r.cc*aq
	}
}

// sortColumns fills s.order with the norms of the n converged columns in
// descending order, equal norms in column order.
func (s *Scratch) sortColumns(m, n int) {
	s.order = grow(s.order, n)
	for j := range s.order {
		s.order[j] = sigmaIdx{sigma: math.Sqrt(norm2(s.wt[j*m:][:m])), idx: j}
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && s.order[j].sigma > s.order[j-1].sigma; j-- {
			s.order[j], s.order[j-1] = s.order[j-1], s.order[j]
		}
	}
}

// completeBasis fills columns rank..m-1 of the m×m matrix u with an
// orthonormal completion of the first rank columns (modified Gram-Schmidt
// against canonical basis candidates). vec is scratch of length m.
func completeBasis(u *Dense, rank int, vec []complex128) {
	m := u.rows
	col := rank
	for cand := 0; cand < m && col < m; cand++ {
		// Start from the canonical basis vector e_cand.
		clear(vec)
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

package photonic

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"sync"

	"flumen/internal/mat"
)

// This file implements the Clements rectangular decomposition (Clements et
// al., Optica 2016; referenced as [10] in the paper): any N×N unitary U is
// factored into N(N-1)/2 MZI transfer matrices arranged in the rectangular
// lattice of Mesh, plus an output phase screen. The construction nulls the
// lower triangle of U along anti-diagonals, alternating column operations
// (physical MZIs on the input side) and row operations (which are commuted
// through the residual diagonal to become output-side MZIs).

// placedOp is an MZI operation acting on wires (Mode, Mode+1), listed in
// physical application order (first op touches the input fields first). T
// is MZI.Transfer(), derived once when the op is solved and carried with it
// to every later use (nulling, diagonal commutation, program op lists).
type placedOp struct {
	Mode int
	MZI  MZI
	T    [2][2]complex128
}

// compiler holds the scratch of the block-compile path: the SVD's working
// storage, the intermediate matrices of CompileBlockScaled and Decompose,
// the op lists and the slot-packing arrays. One compiler serves one
// compilation at a time and is reused across blocks through compilers, so a
// compilation allocates only what its result keeps.
type compiler struct {
	svd mat.Scratch
	// scaled is the block over its spectral norm, vAdj the V* factor and
	// work the matrix Decompose nulls.
	scaled, vAdj, work mat.Dense
	ops, left          []placedOp   // physical op list; pending row operations
	d                  []complex128 // output phase screen
	transfer           []complex128 // the program's measured matrix, column-major
	frontier           []int        // packSlots: next free column per wire
	at                 []int32      // packSlots: column·size + wire → 1 + op index
}

var compilers = sync.Pool{New: func() any { return new(compiler) }}

// Decompose factors the unitary u into a physically ordered list of MZI
// operations and an output phase screen d (unit-modulus diagonal), such
// that u = diag(d) · T_last ··· T_first. It returns an error if u is not
// square or not unitary within tolerance.
func Decompose(u *mat.Dense) ([]placedOp, []complex128, error) {
	cp := compilers.Get().(*compiler)
	defer compilers.Put(cp)
	ops, d, err := cp.decompose(u)
	if err != nil {
		return nil, nil, err
	}
	return slices.Clone(ops), slices.Clone(d), nil
}

// decompose is Decompose with its results in the compiler's scratch, valid
// until the compiler's next decomposition.
func (cp *compiler) decompose(u *mat.Dense) ([]placedOp, []complex128, error) {
	n := u.Rows()
	if u.Cols() != n {
		return nil, nil, fmt.Errorf("photonic: Decompose requires a square matrix, got %d×%d", n, u.Cols())
	}
	if !cp.svd.IsUnitary(u, 1e-8) {
		return nil, nil, fmt.Errorf("photonic: Decompose input is not unitary (‖U*U−I‖ = %g)",
			mat.MaxAbsDiff(mat.Mul(u.Adjoint(), u), mat.Identity(n)))
	}
	w := &cp.work
	w.CopyFrom(u)
	// Column operations act on the input side in the order found, so they
	// open the physical list; row operations wait in left.
	cp.ops, cp.left = cp.ops[:0], cp.left[:0]
	for i := 0; i <= n-2; i++ {
		if i%2 == 0 {
			// Null elements along the anti-diagonal from the bottom-left
			// corner upward using column operations: w ← w · T†.
			for j := 0; j <= i; j++ {
				r := n - 1 - j
				c := i - j
				theta, phi := solveRightNull(w, r, c)
				z := MZI{Theta: theta, Phi: phi}
				t := z.Transfer()
				applyRightAdjoint(w, c, t)
				cp.ops = append(cp.ops, placedOp{Mode: c, MZI: z, T: t})
			}
		} else {
			// Null the anti-diagonal in the reverse order (leftmost element
			// first) using row operations: w ← T·w. The reversed order keeps
			// previously nulled elements null.
			for j := i; j >= 0; j-- {
				r := n - 1 - j
				c := i - j
				theta, phi := solveLeftNull(w, r, c)
				z := MZI{Theta: theta, Phi: phi}
				t := z.Transfer()
				applyLeft(w, r-1, t)
				cp.left = append(cp.left, placedOp{Mode: r - 1, MZI: z, T: t})
			}
		}
	}
	// w should now be diagonal with unit-modulus entries.
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b && mat.AbsExceeds(w.At(a, b), 1e-7) {
				return nil, nil, fmt.Errorf("photonic: Clements nulling left residual %g at (%d,%d)",
					cmplx.Abs(w.At(a, b)), a, b)
			}
		}
	}
	cp.d = slices.Grow(cp.d[:0], n)[:n]
	d := cp.d
	for a := 0; a < n; a++ {
		v := w.At(a, a)
		// Renormalize to unit modulus to suppress numerical drift.
		d[a] = v / complex(cmplx.Abs(v), 0)
	}

	// We now have  L_p ··· L_1 · U · T†_{R1} ··· T†_{Rq} = D, i.e.
	//   U = L_1† ··· L_p† · D · T_{Rq} ··· T_{R1}.
	// Physically the R ops act on the input side in recorded order. Each
	// L_k† must be commuted through the diagonal: L_k†·D' = D''·T'_k, moving
	// the diagonal outward. Processing k = p..1 yields
	//   U = D_final · T'_1 ··· T'_p · T_{Rq} ··· T_{R1},
	// so the physical order is the column ops, then left reversed (T'_p
	// first).
	for k := len(cp.left) - 1; k >= 0; k-- {
		op := cp.left[k]
		m := op.Mode
		newD1, newD2, z, t := commuteThroughDiagonal(op.T, d[m], d[m+1])
		d[m], d[m+1] = newD1, newD2
		cp.ops = append(cp.ops, placedOp{Mode: m, MZI: z, T: t})
	}
	return cp.ops, d, nil
}

// solveRightNull finds θ, φ such that (w·T†)[r][c] = 0 for T acting on
// columns (c, c+1).
func solveRightNull(w *mat.Dense, r, c int) (theta, phi float64) {
	a := w.At(r, c)
	b := w.At(r, c+1)
	absA, absB := cmplx.Abs(a), cmplx.Abs(b)
	// Null condition: e^{-jφ}·sin(θ/2)·a + cos(θ/2)·b = 0.
	theta = 2 * math.Atan2(absB, absA)
	if absA > 0 && absB > 0 {
		phi = math.Pi + cmplx.Phase(a) - cmplx.Phase(b)
	}
	return normalizePhases(theta, phi)
}

// solveLeftNull finds θ, φ such that (T·w)[r][c] = 0 for T acting on rows
// (r-1, r).
func solveLeftNull(w *mat.Dense, r, c int) (theta, phi float64) {
	a := w.At(r-1, c)
	b := w.At(r, c)
	absA, absB := cmplx.Abs(a), cmplx.Abs(b)
	// Null condition: e^{jφ}·cos(θ/2)·a − sin(θ/2)·b = 0.
	theta = 2 * math.Atan2(absA, absB)
	if absA > 0 && absB > 0 {
		phi = cmplx.Phase(b) - cmplx.Phase(a)
	}
	return normalizePhases(theta, phi)
}

// applyRightAdjoint computes w ← w · T† for the transfer t acting on
// columns (c, c+1).
func applyRightAdjoint(w *mat.Dense, c int, t [2][2]complex128) {
	// T†[k][l] = conj(T[l][k]).
	for i := 0; i < w.Rows(); i++ {
		a := w.At(i, c)
		b := w.At(i, c+1)
		w.Set(i, c, a*cmplx.Conj(t[0][0])+b*cmplx.Conj(t[0][1]))
		w.Set(i, c+1, a*cmplx.Conj(t[1][0])+b*cmplx.Conj(t[1][1]))
	}
}

// applyLeft computes w ← T·w for the transfer t acting on rows (m, m+1).
func applyLeft(w *mat.Dense, m int, t [2][2]complex128) {
	for j := 0; j < w.Cols(); j++ {
		a := w.At(m, j)
		b := w.At(m+1, j)
		w.Set(m, j, t[0][0]*a+t[0][1]*b)
		w.Set(m+1, j, t[1][0]*a+t[1][1]*b)
	}
}

// commuteThroughDiagonal solves T† · diag(d1,d2) = diag(d1',d2') · T(θ',φ')
// for the transfer t, returning the new diagonal entries, the MZI
// parameters and their transfer. This is the Clements identity that moves
// output-side row operations through the residual phase screen.
func commuteThroughDiagonal(t [2][2]complex128, d1, d2 complex128) (nd1, nd2 complex128, out MZI, tp [2][2]complex128) {
	// A = T† · diag(d1, d2)
	return solveDiagT(
		cmplx.Conj(t[0][0])*d1, cmplx.Conj(t[1][0])*d2,
		cmplx.Conj(t[0][1])*d1, cmplx.Conj(t[1][1])*d2,
	)
}

// solveDiagT factors an arbitrary 2×2 unitary A as diag(q1,q2)·T(θ',φ'),
// returning T's parameters and its transfer matrix tp. Both sides have four
// real parameters, so the factorization always exists:
//
//	A00 = q1·g·e^{jφ'}·s',  A01 = q1·g·c',
//	A10 = q2·g·e^{jφ'}·c',  A11 = -q2·g·s',   g = j·e^{-jθ'/2}.
func solveDiagT(a00, a01, a10, a11 complex128) (q1, q2 complex128, out MZI, tp [2][2]complex128) {
	sp := cmplx.Abs(a00)
	cp := cmplx.Abs(a01)
	thetaP := 2 * math.Atan2(sp, cp)
	var phiP float64
	if sp > 1e-12 && cp > 1e-12 {
		// φ' = arg(A00) − arg(A01): the q1·g factors cancel.
		phiP = cmplx.Phase(a00) - cmplx.Phase(a01)
	}
	thetaP, phiP = normalizePhases(thetaP, phiP)
	out = MZI{Theta: thetaP, Phi: phiP}
	tp = out.Transfer()
	// Recover q1 from the larger first-row entry, q2 likewise.
	if cp >= sp {
		q1 = a01 / tp[0][1]
	} else {
		q1 = a00 / tp[0][0]
	}
	if cmplx.Abs(a11) >= cmplx.Abs(a10) {
		q2 = a11 / tp[1][1]
	} else {
		q2 = a10 / tp[1][0]
	}
	// Renormalize to unit modulus.
	q1 /= complex(cmplx.Abs(q1), 0)
	q2 /= complex(cmplx.Abs(q2), 0)
	return q1, q2, out, tp
}

// ProgramUnitary programs the mesh to implement the unitary u exactly (up
// to numerical precision) using the Clements decomposition. It panics if u
// has the wrong dimension or is not unitary.
func (m *Mesh) ProgramUnitary(u *mat.Dense) {
	if u.Rows() != m.n {
		panic(fmt.Sprintf("photonic: ProgramUnitary size %d, mesh is %d", u.Rows(), m.n))
	}
	ops, d, err := Decompose(u)
	if err != nil {
		panic(err)
	}
	if err := m.placeOps(ops); err != nil {
		panic(err)
	}
	for i, p := range d {
		m.outPhase[i] = p
	}
	m.invalidate()
}

// packSlots packs a physically ordered op list for a size-input mesh into
// the rectangular lattice of `size` columns using greedy frontier packing:
// at[column·size + topWire] receives 1 + the index of the op placed in that
// slot (slots exist where the two indices share parity), 0 where none is.
// Ops on disjoint wire pairs commute, so any placement preserving the
// relative order of overlapping pairs implements the same unitary; the
// greedy frontier preserves that order and packs a Clements-ordered list
// into exactly `size` columns, filling every slot. frontier and at are
// scratch of length size and size².
func packSlots(ops []placedOp, size int, frontier []int, at []int32) error {
	clear(frontier)
	clear(at)
	for i, op := range ops {
		w := op.Mode
		c := max(frontier[w], frontier[w+1])
		if (c % 2) != (w % 2) {
			c++
		}
		if c >= size {
			return fmt.Errorf("photonic: op on wires (%d,%d) does not fit in %d columns", w, w+1, size)
		}
		// The frontier only advances, so no slot is assigned twice.
		at[c*size+w] = int32(i + 1)
		frontier[w] = c + 1
		frontier[w+1] = c + 1
	}
	if len(ops) != size*(size-1)/2 {
		return fmt.Errorf("photonic: placement filled %d of %d slots", len(ops), size*(size-1)/2)
	}
	return nil
}

// placeOps assigns a physically ordered op list for the whole mesh to its
// slots.
func (m *Mesh) placeOps(ops []placedOp) error {
	at := make([]int32, m.depth*m.depth)
	if err := packSlots(ops, m.depth, make([]int, m.n), at); err != nil {
		return err
	}
	for c := 0; c < m.depth; c++ {
		for w := c % 2; w <= m.n-2; w += 2 {
			*m.cols[c][w] = ops[at[c*m.depth+w]-1].MZI
		}
	}
	m.invalidate()
	return nil
}

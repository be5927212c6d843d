package photonic

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"flumen/internal/mat"
)

// The block compile of commit e4d4751, kept straight-line as the bitwise
// oracle of the compile path: a full SVD for the norm and a second for the
// factors, every MZI transfer derived at each use, slots and op lists built
// through maps. Nothing here is shared with the code under test except
// mat.SVD (pinned to its own seed in internal/mat), MZI.Transfer and
// normalizePhases, which the change left alone.

type seedOp struct {
	mode int
	mzi  MZI
}

type seedProgOp struct {
	w int
	t [2][2]complex128
}

// seedProgram is what the seed's CompileBlockScaled produced.
type seedProgram struct {
	scale          float64
	sigma          []float64
	vSlots, uSlots map[[2]int]MZI
	alpha, du      []complex128
	vOps, uOps     []seedProgOp
}

func seedDecompose(u *mat.Dense) ([]seedOp, []complex128, error) {
	n := u.Rows()
	if u.Cols() != n {
		return nil, nil, fmt.Errorf("not square")
	}
	if !mat.EqualApprox(mat.Mul(u.Adjoint(), u), mat.Identity(n), 1e-8) {
		return nil, nil, fmt.Errorf("not unitary")
	}
	w := u.Clone()
	var rightOps, leftOps []seedOp
	for i := 0; i <= n-2; i++ {
		if i%2 == 0 {
			for j := 0; j <= i; j++ {
				r := n - 1 - j
				c := i - j
				theta, phi := seedSolveRightNull(w, r, c)
				z := MZI{Theta: theta, Phi: phi}
				seedApplyRightAdjoint(w, c, z)
				rightOps = append(rightOps, seedOp{mode: c, mzi: z})
			}
		} else {
			for j := i; j >= 0; j-- {
				r := n - 1 - j
				c := i - j
				theta, phi := seedSolveLeftNull(w, r, c)
				z := MZI{Theta: theta, Phi: phi}
				seedApplyLeft(w, r-1, z)
				leftOps = append(leftOps, seedOp{mode: r - 1, mzi: z})
			}
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b && cmplx.Abs(w.At(a, b)) > 1e-7 {
				return nil, nil, fmt.Errorf("residual")
			}
		}
	}
	d := make([]complex128, n)
	for a := 0; a < n; a++ {
		v := w.At(a, a)
		d[a] = v / complex(cmplx.Abs(v), 0)
	}
	physical := append([]seedOp(nil), rightOps...)
	for k := len(leftOps) - 1; k >= 0; k-- {
		op := leftOps[k]
		m := op.mode
		nd1, nd2, z := seedCommuteThroughDiagonal(op.mzi, d[m], d[m+1])
		d[m], d[m+1] = nd1, nd2
		physical = append(physical, seedOp{mode: m, mzi: z})
	}
	return physical, d, nil
}

func seedSolveRightNull(w *mat.Dense, r, c int) (theta, phi float64) {
	a := w.At(r, c)
	b := w.At(r, c+1)
	theta = 2 * math.Atan2(cmplx.Abs(b), cmplx.Abs(a))
	if cmplx.Abs(a) > 0 && cmplx.Abs(b) > 0 {
		phi = math.Pi + cmplx.Phase(a) - cmplx.Phase(b)
	}
	return normalizePhases(theta, phi)
}

func seedSolveLeftNull(w *mat.Dense, r, c int) (theta, phi float64) {
	a := w.At(r-1, c)
	b := w.At(r, c)
	theta = 2 * math.Atan2(cmplx.Abs(a), cmplx.Abs(b))
	if cmplx.Abs(a) > 0 && cmplx.Abs(b) > 0 {
		phi = cmplx.Phase(b) - cmplx.Phase(a)
	}
	return normalizePhases(theta, phi)
}

func seedApplyRightAdjoint(w *mat.Dense, c int, z MZI) {
	t := z.Transfer()
	for i := 0; i < w.Rows(); i++ {
		a := w.At(i, c)
		b := w.At(i, c+1)
		w.Set(i, c, a*cmplx.Conj(t[0][0])+b*cmplx.Conj(t[0][1]))
		w.Set(i, c+1, a*cmplx.Conj(t[1][0])+b*cmplx.Conj(t[1][1]))
	}
}

func seedApplyLeft(w *mat.Dense, m int, z MZI) {
	t := z.Transfer()
	for j := 0; j < w.Cols(); j++ {
		a := w.At(m, j)
		b := w.At(m+1, j)
		w.Set(m, j, t[0][0]*a+t[0][1]*b)
		w.Set(m+1, j, t[1][0]*a+t[1][1]*b)
	}
}

func seedCommuteThroughDiagonal(z MZI, d1, d2 complex128) (nd1, nd2 complex128, out MZI) {
	t := z.Transfer()
	return seedSolveDiagT(
		cmplx.Conj(t[0][0])*d1, cmplx.Conj(t[1][0])*d2,
		cmplx.Conj(t[0][1])*d1, cmplx.Conj(t[1][1])*d2,
	)
}

func seedSolveDiagT(a00, a01, a10, a11 complex128) (q1, q2 complex128, out MZI) {
	sp := cmplx.Abs(a00)
	cp := cmplx.Abs(a01)
	thetaP := 2 * math.Atan2(sp, cp)
	var phiP float64
	if sp > 1e-12 && cp > 1e-12 {
		phiP = cmplx.Phase(a00) - cmplx.Phase(a01)
	}
	thetaP, phiP = normalizePhases(thetaP, phiP)
	out = MZI{Theta: thetaP, Phi: phiP}
	tp := out.Transfer()
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
	q1 /= complex(cmplx.Abs(q1), 0)
	q2 /= complex(cmplx.Abs(q2), 0)
	return q1, q2, out
}

func seedAssignSlots(ops []seedOp, size int) (map[[2]int]MZI, error) {
	frontier := make([]int, size)
	slots := make(map[[2]int]MZI, len(ops))
	for _, op := range ops {
		w := op.mode
		c := frontier[w]
		if frontier[w+1] > c {
			c = frontier[w+1]
		}
		if (c % 2) != (w % 2) {
			c++
		}
		if c >= size {
			return nil, fmt.Errorf("does not fit")
		}
		slots[[2]int{c, w}] = op.mzi
		frontier[w] = c + 1
		frontier[w+1] = c + 1
	}
	if len(slots) != size*(size-1)/2 {
		return nil, fmt.Errorf("placement filled %d slots", len(slots))
	}
	return slots, nil
}

func seedCompileOps(slots map[[2]int]MZI, size int) []seedProgOp {
	var ops []seedProgOp
	for c := 0; c < size; c++ {
		for w := c % 2; w <= size-2; w += 2 {
			if op, ok := slots[[2]int{c, w}]; ok {
				ops = append(ops, seedProgOp{w: w, t: op.Transfer()})
			}
		}
	}
	return ops
}

func seedCompileBlock(m *mat.Dense) (*seedProgram, error) {
	n := m.Rows()
	svd := mat.SVD(m)
	for _, sv := range svd.Sigma {
		if sv > 1+1e-9 {
			return nil, fmt.Errorf("singular value %g > 1", sv)
		}
	}
	vOps, dV, err := seedDecompose(svd.V.Adjoint())
	if err != nil {
		return nil, fmt.Errorf("V*: %w", err)
	}
	vSlots, err := seedAssignSlots(vOps, n)
	if err != nil {
		return nil, err
	}
	uOps, dU, err := seedDecompose(svd.U)
	if err != nil {
		return nil, fmt.Errorf("U: %w", err)
	}
	uSlots, err := seedAssignSlots(uOps, n)
	if err != nil {
		return nil, err
	}
	alpha := make([]complex128, n)
	for i := range alpha {
		alpha[i] = complex(svd.Sigma[i], 0) * dV[i]
	}
	return &seedProgram{
		scale: 1, sigma: svd.Sigma,
		vSlots: vSlots, uSlots: uSlots, alpha: alpha, du: dU,
		vOps: seedCompileOps(vSlots, n), uOps: seedCompileOps(uSlots, n),
	}, nil
}

func seedCompileBlockScaled(m *mat.Dense) (*seedProgram, error) {
	scale := mat.SVD(m).Sigma[0]
	if scale == 0 {
		sp, err := seedCompileBlock(mat.New(m.Rows(), m.Cols()))
		if err != nil {
			return nil, err
		}
		sp.scale = 0
		return sp, nil
	}
	sp, err := seedCompileBlock(mat.Scale(complex(1/scale, 0), m))
	if err != nil {
		return nil, err
	}
	sp.scale = scale
	return sp, nil
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameMZI(a, b MZI) bool { return sameFloat(a.Theta, b.Theta) && sameFloat(a.Phi, b.Phi) }

// diffProgram names the first field of bp that is not bit-identical to the
// oracle's, or returns "".
func diffProgram(bp *BlockProgram, sp *seedProgram) string {
	n := bp.Size
	if !sameFloat(bp.Scale, sp.scale) {
		return fmt.Sprintf("Scale %x, want %x", bp.Scale, sp.scale)
	}
	if len(bp.Sigma) != len(sp.sigma) {
		return "Sigma length"
	}
	for i := range sp.sigma {
		if !sameFloat(bp.Sigma[i], sp.sigma[i]) {
			return fmt.Sprintf("Sigma[%d]", i)
		}
	}
	if !bitsEqualVec(bp.alpha, sp.alpha) {
		return "alpha"
	}
	if !bitsEqualVec(bp.du, sp.du) {
		return "du"
	}
	for _, lat := range []struct {
		name  string
		slots []MZI
		want  map[[2]int]MZI
	}{{"V*", bp.vSlots, sp.vSlots}, {"U", bp.uSlots, sp.uSlots}} {
		if len(lat.slots) != n*n {
			return lat.name + " slot array length"
		}
		for key, z := range lat.want {
			if !sameMZI(lat.slots[key[0]*n+key[1]], z) {
				return fmt.Sprintf("%s slot %v", lat.name, key)
			}
		}
	}
	// The plan is the seed's op lists and screens laid out as arrays.
	pl := &bp.plan
	all := append(append([]seedProgOp(nil), sp.vOps...), sp.uOps...)
	if len(pl.wires) != len(all) || len(pl.t00) != len(all) || len(pl.t01) != len(all) ||
		len(pl.t10) != len(all) || len(pl.t11) != len(all) {
		return "plan array lengths"
	}
	for o, op := range all {
		if int(pl.wires[o]) != op.w ||
			!bitsEqualVec([]complex128{pl.t00[o], pl.t01[o], pl.t10[o], pl.t11[o]},
				[]complex128{op.t[0][0], op.t[0][1], op.t[1][0], op.t[1][1]}) {
			return fmt.Sprintf("plan op %d", o)
		}
	}
	nv := int32(len(sp.vOps))
	wantSegs := []planSeg{{opLo: 0, opHi: nv}, {diag: sp.alpha}, {opLo: nv, opHi: int32(len(all))}, {diag: sp.du}}
	if nv == 0 { // size 1 has no MZIs: screens only
		wantSegs = []planSeg{{diag: sp.alpha}, {diag: sp.du}}
	}
	if len(pl.segs) != len(wantSegs) {
		return "plan segment count"
	}
	for i, sg := range wantSegs {
		got := pl.segs[i]
		if got.opLo != sg.opLo || got.opHi != sg.opHi || (got.diag == nil) != (sg.diag == nil) || !bitsEqualVec(got.diag, sg.diag) {
			return fmt.Sprintf("plan segment %d", i)
		}
	}
	return ""
}

// oracleBlock returns the i-th seeded test block: sizes 2–16 over every kind
// of block the compile path can meet.
func oracleBlock(rng *rand.Rand, i int) (*mat.Dense, string) {
	n := 2 + rng.Intn(15)
	if i%3 == 0 {
		n = 8 // the serving block size
	}
	m := mat.New(n, n)
	negZero := math.Copysign(0, -1)
	kind := [...]string{"real", "real-gauss", "complex", "rank-deficient", "zero", "identity", "permutation", "signed-zeros", "wide-exponents", "diagonal"}[i%10]
	switch kind {
	case "real": // the wire's traffic
		m = mat.RandomReal(n, n, rng)
	case "real-gauss":
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				m.Set(r, c, complex(rng.NormFloat64()*float64(1+rng.Intn(100)), 0))
			}
		}
	case "complex":
		m = mat.RandomDense(n, n, rng)
	case "rank-deficient":
		m = mat.RandomReal(n, n, rng)
		for c := 1; c < n; c += 2 {
			f := complex(float64(rng.Intn(3)), 0)
			for r := 0; r < n; r++ {
				m.Set(r, c, m.At(r, c-1)*f)
			}
		}
	case "zero":
		if rng.Intn(2) == 0 {
			for r := 0; r < n; r++ {
				m.Set(r, rng.Intn(n), complex(negZero, 0))
			}
		}
	case "identity":
		for r := 0; r < n; r++ {
			m.Set(r, r, complex(1+float64(rng.Intn(2)), 0))
		}
	case "permutation":
		for r, c := range rng.Perm(n) {
			v := 1.0
			if rng.Intn(2) == 0 {
				v = -1
			}
			m.Set(r, c, complex(v, 0))
		}
	case "signed-zeros":
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				switch rng.Intn(4) {
				case 0:
					m.Set(r, c, complex(rng.NormFloat64(), negZero))
				case 1:
					m.Set(r, c, complex(negZero, 0))
				case 2:
					m.Set(r, c, complex(0, negZero))
				}
			}
		}
	case "wide-exponents": // inside the safe band, where the seed's path is kept
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				m.Set(r, c, complex(math.Ldexp(rng.NormFloat64(), rng.Intn(400)-200), 0))
			}
		}
	case "diagonal":
		for r := 0; r < n; r++ {
			m.Set(r, r, complex(rng.NormFloat64(), 0))
		}
	}
	return m, kind
}

// TestCompileBlockMatchesSeedBitwise compiles seeded blocks with the compile
// path and with the seed's straight-line pipeline and compares everything a
// program holds — scale, singular values, attenuators, phase screen, slot
// angles, every op's wire and transfer, the plan's arrays — bit for bit.
// The pooled scratch is reused from block to block and size to size, so
// anything left behind by an earlier compilation would show.
func TestCompileBlockMatchesSeedBitwise(t *testing.T) {
	blocks := 10500
	if testing.Short() {
		blocks = 1500
	}
	rng := rand.New(rand.NewSource(20260412))
	for i := 0; i < blocks; i++ {
		m, kind := oracleBlock(rng, i)
		want, werr := seedCompileBlockScaled(m)
		got, gerr := CompileBlockScaled(m)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("block %d (%s, n=%d): error %v, seed's %v", i, kind, m.Rows(), gerr, werr)
		}
		if werr != nil {
			continue
		}
		if d := diffProgram(got, want); d != "" {
			t.Fatalf("block %d (%s, n=%d): %s differs from the seed's compile", i, kind, m.Rows(), d)
		}
	}
}

// TestDecomposeMatchesSeedBitwise pins the exported Decompose (which copies
// its result out of the scratch) and Mesh.ProgramUnitary's slot placement.
func TestDecomposeMatchesSeedBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 300; i++ {
		n := 2 + rng.Intn(11)
		u := mat.RandomUnitary(n, rng)
		want, wd, err := seedDecompose(u)
		if err != nil {
			t.Fatal(err)
		}
		got, gd, err := Decompose(u)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || !bitsEqualVec(gd, wd) {
			t.Fatalf("n=%d: op count or phase screen differs from the seed's", n)
		}
		for k, op := range want {
			tr := op.mzi.Transfer()
			if got[k].Mode != op.mode || !sameMZI(got[k].MZI, op.mzi) ||
				!bitsEqualVec(got[k].T[0][:], tr[0][:]) || !bitsEqualVec(got[k].T[1][:], tr[1][:]) {
				t.Fatalf("n=%d: op %d differs from the seed's", n, k)
			}
		}
		slots, err := seedAssignSlots(want, n)
		if err != nil {
			t.Fatal(err)
		}
		mesh := NewMesh(n)
		mesh.ProgramUnitary(u)
		for key, z := range slots {
			if !sameMZI(*mesh.cols[key[0]][key[1]], z) {
				t.Fatalf("n=%d: mesh slot %v differs from the seed's placement", n, key)
			}
		}
	}
}

package photonic

import (
	"fmt"
	"math/cmplx"
	"slices"

	"flumen/internal/mat"
)

// ReckMesh is the triangular universal interferometer of Reck et al. — the
// main alternative geometry to the rectangular Clements mesh the paper
// adopts. It also uses N(N-1)/2 MZIs, but arranged so the circuit depth is
// 2N-3 layers instead of N, and the path-length (and therefore loss)
// spread between ports is much larger. DESIGN.md lists this geometry as an
// ablation: the Flumen paper's loss arithmetic (k/2-MZI average paths,
// small equalization range for the attenuator column) depends on choosing
// the rectangle.
//
// The decomposition nulls the lower triangle row by row from the bottom
// using column (input-side) operations only, so no phase-screen
// commutation is required: U = D · T_q ··· T_1.
type ReckMesh struct {
	n        int
	ops      []placedOp // physical order: ops[0] touches the input first
	depth    int
	outPhase []complex128
	// plan is ops and outPhase compiled, rebuilt whenever either changes
	// (ProgramUnitary, PerturbPhases).
	plan *CompiledPlan
}

// NewReckMesh returns an N-input triangular mesh programmed to (phase-
// equivalent) identity.
func NewReckMesh(n int) *ReckMesh {
	if n < 2 {
		panic(fmt.Sprintf("photonic: Reck mesh size %d < 2", n))
	}
	m := &ReckMesh{n: n, outPhase: make([]complex128, n)}
	for i := range m.outPhase {
		m.outPhase[i] = 1
	}
	m.ProgramUnitary(mat.Identity(n))
	return m
}

// N returns the port count.
func (m *ReckMesh) N() int { return m.n }

// NumMZIs returns the device count, N(N-1)/2.
func (m *ReckMesh) NumMZIs() int { return len(m.ops) }

// Depth returns the layer count of the programmed triangle (2N-3 for
// N ≥ 2).
func (m *ReckMesh) Depth() int { return m.depth }

// ProgramUnitary programs the mesh to implement u via the Reck
// decomposition. It panics if u is not unitary.
func (m *ReckMesh) ProgramUnitary(u *mat.Dense) {
	if u.Rows() != m.n || u.Cols() != m.n {
		panic(fmt.Sprintf("photonic: ProgramUnitary size %d×%d, mesh is %d", u.Rows(), u.Cols(), m.n))
	}
	if !u.IsUnitary(1e-8) {
		panic("photonic: ReckMesh.ProgramUnitary input is not unitary")
	}
	n := m.n
	w := u.Clone()
	m.ops = m.ops[:0]
	// Null the lower triangle bottom row first, sweeping left to right;
	// column operations never disturb already-nulled rows below (their
	// entries are zero in every mixed column).
	for r := n - 1; r >= 1; r-- {
		for c := 0; c < r; c++ {
			theta, phi := solveRightNull(w, r, c)
			z := MZI{Theta: theta, Phi: phi}
			t := z.Transfer()
			applyRightAdjoint(w, c, t)
			m.ops = append(m.ops, placedOp{Mode: c, MZI: z, T: t})
		}
	}
	m.outPhase = m.outPhase[:0]
	for i := 0; i < n; i++ {
		d := w.At(i, i)
		if a := cmplx.Abs(d); a > 0 {
			d /= complex(a, 0)
		} else {
			d = 1
		}
		m.outPhase = append(m.outPhase, d)
	}
	// Greedy layer assignment (no lattice parity constraint): an op's
	// layer is one past the latest layer touching either of its wires.
	frontier := make([]int, n)
	m.depth = 0
	for _, op := range m.ops {
		l := max(frontier[op.Mode], frontier[op.Mode+1]) + 1
		frontier[op.Mode], frontier[op.Mode+1] = l, l
		m.depth = max(m.depth, l)
	}
	m.compile()
}

// compile rebuilds the plan from the ops' current settings (PerturbPhases
// edits op.MZI, not op.T) and the output phase screen.
func (m *ReckMesh) compile() {
	b := newPlanBuilder(m.n, len(m.ops))
	for _, op := range m.ops {
		b.addOp(op.Mode, op.MZI.Transfer())
	}
	b.addDiag(slices.Clone(m.outPhase))
	m.plan = b.build()
}

// Forward propagates input E-fields through the triangle.
func (m *ReckMesh) Forward(in []complex128) []complex128 {
	state := slices.Clone(in)
	m.plan.ForwardBatch(state, 1)
	return state
}

// Matrix returns the implemented unitary.
func (m *ReckMesh) Matrix() *mat.Dense { return m.plan.Matrix() }

// WireTouches returns, per wire, how many MZIs touch it — the structural
// per-port worst-case device count that determines the loss spread the
// attenuator column would need to equalize. For the triangle this spread
// is far wider than the rectangle's (wire 1 is touched ~2N-3 times, the
// top wire only once).
func (m *ReckMesh) WireTouches() []int {
	touches := make([]int, m.n)
	for _, op := range m.ops {
		touches[op.Mode]++
		touches[op.Mode+1]++
	}
	return touches
}

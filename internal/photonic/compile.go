package photonic

import (
	"fmt"
	"slices"
)

// Compiled propagation kernels: instead of interpreting a mesh device by
// device — chasing per-slot *MZI pointers and re-deriving each 2×2 transfer
// on every vector propagated — a CompiledPlan flattens a programmed lattice
// into contiguous structure-of-arrays: one int32 wire index plus the four
// complex transfer coefficients per MZI, in the exact physical application
// order, with fabrication-imperfection coefficients folded in at compile
// time. Pointwise stages (the attenuator column, output phase screens)
// appear as diagonal segments between op runs.
//
// The plan applies the same floating-point operations in the same per-vector
// order as the interpreted path, so its outputs are bitwise-identical to
// Mesh.ForwardRange / BlockProgram.ForwardInto propagation — the property
// the equivalence tests in compile_test.go pin down. What changes is purely
// mechanical: coefficients are loaded once per op instead of once per op per
// vector, and ForwardBatch streams many right-hand sides through the plan
// with an RHS-tiled inner loop so the coefficient arrays stay resident while
// a whole tile of vectors advances.
//
// Plans over live device state (Mesh, FlumenMesh) are invalidated by a
// generation counter bumped on every mutation (SetMZI, programming, phase
// perturbation, fabrication-error injection); plans over immutable
// BlockProgram artifacts are compiled once and cached forever alongside the
// program, so the engine's weight-program cache amortizes plan compilation
// across calls.

// planTile is the number of right-hand sides advanced together through the
// op list by ForwardBatch. The tile's state slab (planTile × n complex128)
// plus the coefficient arrays stay cache-resident while every op of the
// plan sweeps the tile.
const planTile = 32

// planSeg is one stage of a compiled plan: either a run of MZI ops
// [opLo, opHi) from the SoA arrays, or (when diag is non-nil) a pointwise
// per-wire multiplication.
type planSeg struct {
	opLo, opHi int32
	diag       []complex128
}

// CompiledPlan is a flattened propagation kernel. It is immutable after
// compilation and safe for concurrent use.
type CompiledPlan struct {
	n    int
	segs []planSeg
	// Structure-of-arrays op storage: op o acts on wires
	// (wires[o], wires[o]+1) with transfer [[t00 t01] [t10 t11]].
	wires              []int32
	t00, t01, t10, t11 []complex128
}

// N returns the state width (number of wires) the plan propagates.
func (pl *CompiledPlan) N() int { return pl.n }

// NumOps returns the number of MZI applications in the plan.
func (pl *CompiledPlan) NumOps() int { return len(pl.wires) }

// Forward propagates one vector through the plan in place. The operation
// sequence is identical to the interpreted path the plan was compiled from.
func (pl *CompiledPlan) Forward(state []complex128) {
	if len(state) != pl.n {
		panic(fmt.Sprintf("photonic: CompiledPlan Forward state length %d, want %d", len(state), pl.n))
	}
	for _, sg := range pl.segs {
		if sg.diag != nil {
			for i, d := range sg.diag {
				state[i] *= d
			}
			continue
		}
		for o := sg.opLo; o < sg.opHi; o++ {
			w := pl.wires[o]
			a, b := state[w], state[w+1]
			state[w] = pl.t00[o]*a + pl.t01[o]*b
			state[w+1] = pl.t10[o]*a + pl.t11[o]*b
		}
	}
}

// ForwardBatch propagates k vectors through the plan in place. states holds
// the vectors back to back (vector v occupies states[v*n : (v+1)*n]).
// Vectors never mix: every op acts within one vector's slab, so a NaN or
// Inf in one right-hand side cannot contaminate another. Each vector
// undergoes exactly the operation sequence of Forward — the batch merely
// reorders work across vectors, loading each op's coefficients once per
// tile of planTile right-hand sides instead of once per vector.
func (pl *CompiledPlan) ForwardBatch(states []complex128, k int) {
	n := pl.n
	if len(states) != k*n {
		panic(fmt.Sprintf("photonic: CompiledPlan ForwardBatch length %d, want %d×%d", len(states), k, n))
	}
	for v0 := 0; v0 < k; v0 += planTile {
		v1 := min(v0+planTile, k)
		tile := states[v0*n : v1*n]
		for _, sg := range pl.segs {
			if sg.diag != nil {
				for off := 0; off < len(tile); off += n {
					s := tile[off : off+n]
					for i, d := range sg.diag {
						s[i] *= d
					}
				}
				continue
			}
			for o := sg.opLo; o < sg.opHi; o++ {
				w := int(pl.wires[o])
				c00, c01, c10, c11 := pl.t00[o], pl.t01[o], pl.t10[o], pl.t11[o]
				for off := w; off < len(tile); off += n {
					a, b := tile[off], tile[off+1]
					tile[off] = c00*a + c01*b
					tile[off+1] = c10*a + c11*b
				}
			}
		}
	}
}

// planBuilder accumulates ops and diagonal stages in application order.
type planBuilder struct {
	plan     CompiledPlan
	runStart int32
}

// newPlanBuilder starts a plan over n wires with room for ops MZI
// applications (more may be added) and four stages, the coefficient arrays
// cut from one allocation.
func newPlanBuilder(n, ops int) *planBuilder {
	coef := make([]complex128, 4*ops)
	return &planBuilder{plan: CompiledPlan{
		n:     n,
		segs:  make([]planSeg, 0, 4),
		wires: make([]int32, 0, ops),
		t00:   coef[0:0:ops],
		t01:   coef[ops : ops : 2*ops],
		t10:   coef[2*ops : 2*ops : 3*ops],
		t11:   coef[3*ops : 3*ops : 4*ops],
	}}
}

// addOp appends one MZI application on wire pair (w, w+1).
func (b *planBuilder) addOp(w int, t [2][2]complex128) {
	p := &b.plan
	p.wires = append(p.wires, int32(w))
	p.t00 = append(p.t00, t[0][0])
	p.t01 = append(p.t01, t[0][1])
	p.t10 = append(p.t10, t[1][0])
	p.t11 = append(p.t11, t[1][1])
}

// closeRun seals the pending op run as a segment.
func (b *planBuilder) closeRun() {
	if end := int32(len(b.plan.wires)); end > b.runStart {
		b.plan.segs = append(b.plan.segs, planSeg{opLo: b.runStart, opHi: end})
		b.runStart = end
	}
}

// addDiag appends a pointwise per-wire stage. The plan keeps d, which must
// not change afterwards.
func (b *planBuilder) addDiag(d []complex128) {
	if len(d) != b.plan.n {
		panic("photonic: plan diagonal length mismatch")
	}
	b.closeRun()
	b.plan.segs = append(b.plan.segs, planSeg{diag: d})
}

func (b *planBuilder) build() *CompiledPlan {
	b.closeRun()
	pl := b.plan
	return &pl
}

// appendRange compiles mesh columns [c0, c1) into the builder: for every
// populated slot it records the wire index and the exact 2×2 transfer the
// interpreter would derive per vector — imperfectTransfer when a
// fabrication-imperfection entry is set, the ideal MZI transfer otherwise —
// in ForwardRange's column-major application order.
func (m *Mesh) appendRange(b *planBuilder, c0, c1 int) {
	if c0 < 0 || c1 > m.depth || c0 > c1 {
		panic(fmt.Sprintf("photonic: appendRange invalid column range [%d,%d)", c0, c1))
	}
	for c := c0; c < c1; c++ {
		col := m.cols[c]
		for w := c % 2; w <= m.n-2; w += 2 {
			if col[w] == nil {
				continue
			}
			z := *col[w]
			if m.fabEta != nil {
				if e := m.fabEta[c][w]; e[0] != 0 || e[1] != 0 {
					b.addOp(w, imperfectTransfer(z, e[0], e[1]))
					continue
				}
			}
			b.addOp(w, z.Transfer())
		}
	}
}

// CompileRange flattens columns [c0, c1) of the mesh (without the output
// phase screen) into a fresh plan, bitwise-equivalent to ForwardRange over
// the same columns.
func (m *Mesh) CompileRange(c0, c1 int) *CompiledPlan {
	b := newPlanBuilder(m.n, (c1-c0)*m.n/2)
	m.appendRange(b, c0, c1)
	return b.build()
}

// meshPlan pairs a compiled whole-mesh plan with the device generation it
// was compiled from.
type meshPlan struct {
	gen  uint64
	plan *CompiledPlan
}

// CompilePlan returns the whole-mesh plan (all columns plus the output
// phase screen), compiling it on first use and whenever the device state
// has changed since the cached plan was built. Propagating a vector through
// the returned plan is bitwise-identical to Mesh.Forward.
func (m *Mesh) CompilePlan() *CompiledPlan {
	gen := m.gen.Load()
	if mp := m.plan.Load(); mp != nil && mp.gen == gen {
		return mp.plan
	}
	b := newPlanBuilder(m.n, m.NumMZIs())
	m.appendRange(b, 0, m.depth)
	b.addDiag(slices.Clone(m.outPhase))
	pl := b.build()
	m.plan.Store(&meshPlan{gen: gen, plan: pl})
	return pl
}

// fabricPlan pairs a compiled whole-fabric plan with the mesh and
// attenuator generations it was compiled from.
type fabricPlan struct {
	meshGen, attenGen uint64
	plan              *CompiledPlan
}

// plan returns the whole-fabric plan (left mesh half, attenuator column,
// right mesh half, output phase screen), recompiling whenever any device
// has been reprogrammed since the cached plan was built.
func (f *FlumenMesh) plan() *CompiledPlan {
	mg, ag := f.mesh.gen.Load(), f.attenGen.Load()
	if fp := f.planCache.Load(); fp != nil && fp.meshGen == mg && fp.attenGen == ag {
		return fp.plan
	}
	b := newPlanBuilder(f.n, f.mesh.NumMZIs())
	f.mesh.appendRange(b, 0, f.n/2)
	amp := make([]complex128, f.n)
	for i := range amp {
		amp[i] = f.atten[i].Amplitude()
	}
	b.addDiag(amp)
	f.mesh.appendRange(b, f.n/2, f.n)
	b.addDiag(slices.Clone(f.mesh.outPhase))
	pl := b.build()
	f.planCache.Store(&fabricPlan{meshGen: mg, attenGen: ag, plan: pl})
	return pl
}

// CompilePlan exposes the cached whole-fabric plan. Propagating a vector
// through it is bitwise-identical to FlumenMesh.Forward.
func (f *FlumenMesh) CompilePlan() *CompiledPlan { return f.plan() }

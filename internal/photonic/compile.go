package photonic

import (
	"fmt"
	"slices"

	"flumen/internal/mat"
)

// One executor: a CompiledPlan is the only code in the package that
// propagates light. It flattens a programmed lattice into
// structure-of-arrays — one int32 wire index plus the four complex transfer
// coefficients per MZI, in the exact physical application order — and
// pointwise stages (the attenuator column, output phase screens) appear as
// diagonal segments between op runs.
//
// Every propagating type reads a plan: a BlockProgram is born with its plan
// (program.go), FaultInjector.Corrupt compiles the faulted coefficients of a
// program into a plan that shares the program's wires and diagonals
// (fault.go), and Mesh and FlumenMesh cache one per device generation.
// ForwardBatch is the one loop that applies an MZI; Matrix, MatrixInto and
// TransferInto run the identity through it. The device-by-device walker every plan must
// match bit for bit lives on in oracle_test.go.
//
// Plans over live device state (Mesh, FlumenMesh) are invalidated by a
// generation counter bumped on every mutation (SetMZI, programming,
// routing, attenuator writes); a program's plan is as
// immutable as the program, so the engine's weight-program cache caches
// both at once.

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

// ForwardBatch propagates k vectors through the plan in place. states holds
// the vectors back to back (vector v occupies states[v*n : (v+1)*n]); one
// vector is a batch of one. Vectors never mix: every op acts within one
// vector's slab, so a NaN or Inf in one right-hand side cannot contaminate
// another. Each vector undergoes the same operation sequence, in the same
// order, whatever k is — the batch merely reorders work across vectors,
// loading each op's coefficients once per tile of planTile right-hand sides
// instead of once per vector.
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

// Matrix returns the N×N matrix the plan implements.
func (pl *CompiledPlan) Matrix() *mat.Dense { return pl.MatrixInto(mat.New(pl.n, pl.n)) }

// MatrixInto writes the plan's N×N matrix into m and returns it: the
// identity propagates through ForwardBatch as one slab of N basis vectors.
func (pl *CompiledPlan) MatrixInto(m *mat.Dense) *mat.Dense {
	if m.Rows() != pl.n {
		panic("photonic: MatrixInto size mismatch")
	}
	return pl.blockInto(m, 0)
}

// TransferInto writes the plan's N×N matrix into t column-major (column j
// at t[j·N : (j+1)·N]) and returns t[:N·N], with the same propagation as
// MatrixInto, so the values are its bit for bit.
func (pl *CompiledPlan) TransferInto(t []complex128) []complex128 {
	return pl.basisResponse(t, 0, pl.n)
}

// blockInto writes into the k×k matrix m the block of the plan's matrix on
// wires [lo, lo+k) — the response of those outputs to those inputs with
// every other input dark.
func (pl *CompiledPlan) blockInto(m *mat.Dense, lo int) *mat.Dense {
	n, k := pl.n, m.Rows()
	if m.Cols() != k || lo < 0 || lo+k > n {
		panic("photonic: MatrixInto size mismatch")
	}
	states := pl.basisResponse(make([]complex128, k*n), lo, k)
	for j := 0; j < k; j++ {
		m.SetCol(j, states[j*n+lo:][:k])
	}
	return m
}

// basisResponse propagates basis vectors lo … lo+k−1 through ForwardBatch
// as one slab in states[:k·N], overwriting it, and returns the slab.
func (pl *CompiledPlan) basisResponse(states []complex128, lo, k int) []complex128 {
	n := pl.n
	states = states[:k*n]
	clear(states)
	for j := 0; j < k; j++ {
		states[j*n+lo+j] = 1
	}
	pl.ForwardBatch(states, k)
	return states
}

// setCoef points the plan's four coefficient arrays at the consecutive
// quarters of coef, each of length l.
func (pl *CompiledPlan) setCoef(coef []complex128, l int) {
	q := len(coef) / 4
	pl.t00, pl.t01 = coef[:l:q], coef[q:q+l:2*q]
	pl.t10, pl.t11 = coef[2*q:2*q+l:3*q], coef[3*q:3*q+l:4*q]
}

// planBuilder appends ops and diagonal stages to a plan in application
// order.
type planBuilder struct {
	pl       *CompiledPlan
	runStart int32
}

// newPlanBuilder starts a fresh plan over n wires with room for ops MZI
// applications and four stages, the coefficient arrays cut from one
// allocation.
func newPlanBuilder(n, ops int) *planBuilder {
	pl := &CompiledPlan{n: n, segs: make([]planSeg, 0, 4), wires: make([]int32, 0, ops)}
	pl.setCoef(make([]complex128, 4*ops), 0)
	return &planBuilder{pl: pl}
}

// addOp appends one MZI application on wire pair (w, w+1).
func (b *planBuilder) addOp(w int, t [2][2]complex128) {
	p := b.pl
	p.wires = append(p.wires, int32(w))
	p.t00 = append(p.t00, t[0][0])
	p.t01 = append(p.t01, t[0][1])
	p.t10 = append(p.t10, t[1][0])
	p.t11 = append(p.t11, t[1][1])
}

// closeRun seals the pending op run as a segment.
func (b *planBuilder) closeRun() {
	if end := int32(len(b.pl.wires)); end > b.runStart {
		b.pl.segs = append(b.pl.segs, planSeg{opLo: b.runStart, opHi: end})
		b.runStart = end
	}
}

// addDiag appends a pointwise per-wire stage. The plan keeps d, which must
// hold its final values before the plan first runs and not change after.
func (b *planBuilder) addDiag(d []complex128) {
	if len(d) != b.pl.n {
		panic("photonic: plan diagonal length mismatch")
	}
	b.closeRun()
	b.pl.segs = append(b.pl.segs, planSeg{diag: d})
}

func (b *planBuilder) build() *CompiledPlan {
	b.closeRun()
	return b.pl
}

// appendRange compiles mesh columns [c0, c1) into the builder: for every
// populated slot it records the wire index and the device's 2×2 transfer,
// in column-major order (ops within one column act on disjoint wire pairs).
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
			b.addOp(w, col[w].Transfer())
		}
	}
}

// meshPlan pairs a compiled whole-mesh plan with the device generation it
// was compiled from.
type meshPlan struct {
	gen  uint64
	plan *CompiledPlan
}

// CompilePlan returns the whole-mesh plan (all columns plus the output
// phase screen), compiling it on first use and whenever the device state
// has changed since the cached plan was built.
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

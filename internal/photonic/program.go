package photonic

import (
	"fmt"
	"math"
	"slices"

	"flumen/internal/mat"
)

// This file implements the reusable weight-program artifact behind the
// accelerator's program cache: CompileBlock runs the expensive SVD +
// Clements decomposition once and captures everything the fabric needs —
// the placed MZI settings of the V* and U lattices, the Σ·dV attenuator
// column, U's output phase screen and the spectral pre-scale — so the same
// weights can be re-applied to any same-size partition (Partition.Apply)
// or executed directly through the program's plan without re-deriving
// phases.
//
// A compilation works in a pooled compiler's scratch (clements.go) and
// allocates only what the program keeps, each array at its final size: a
// lattice's settings are a flat slice indexed column·Size + topWire, and
// the program's plan — the SVD-mesh lattice of Fig. 4, V* columns → Σ
// attenuators → U columns → phase screen — is written by the compiler as
// it solves each op, its arrays cut from the program's own allocations.
// Because propagation depends only on the compiled artifact — not on which
// fabric partition executes it — every partition produces bit-identical
// results for the same program, which is what makes the parallel engine's
// output independent of work scheduling.

// BlockProgram is a finished weight program for one Size×Size block: the
// decomposition artifact produced by CompileBlock/CompileBlockScaled. It is
// immutable after compilation and safe for concurrent use.
type BlockProgram struct {
	// Size is the block (partition) dimension the program targets.
	Size int
	// Scale is the spectral-norm factor recorded by CompileBlockScaled
	// (1 for CompileBlock, 0 for an all-zero block): outputs of the
	// normalized lattice must be multiplied by it (Sec 3.3.1).
	Scale float64
	// Sigma holds the singular values of the normalized block.
	Sigma []float64

	// Placed MZI settings for the V* and U lattices, indexed
	// relativeColumn·Size + relativeTopWire (meaningful where the two share
	// parity and the wire is not the last); consumed by Partition.Apply and
	// FaultInjector.Corrupt.
	vSlots, uSlots []MZI
	// alpha is the attenuator column: Σ_i·dV_i (V*'s phase screen folded
	// into the Σ stage, as the physical fabric realizes it).
	alpha []complex128
	// du is U's output phase screen.
	du []complex128

	// plan is the lattice the program executes: V* ops, the alpha diagonal,
	// U ops, the du diagonal. segs holds its four stages.
	plan CompiledPlan
	segs [4]planSeg
	// transfer is the real part of the plan's Size×Size matrix,
	// column-major, measured once at compile by propagating the identity
	// through the plan.
	transfer []float64
}

// newBlockProgram allocates a size-input program with every array at its
// final size in five allocations: the program, one real array holding
// Sigma and the transfer matrix, the two lattices' slots, the plan's wires,
// and one complex array holding both screens and the plan's coefficients.
func newBlockProgram(size int) *BlockProgram {
	slots := make([]MZI, 2*size*size)
	ops := size * (size - 1)
	cplx := make([]complex128, 2*size+4*ops)
	reals := make([]float64, size+size*size)
	bp := &BlockProgram{
		Size:     size,
		Scale:    1,
		Sigma:    reals[:size:size],
		vSlots:   slots[: size*size : size*size],
		uSlots:   slots[size*size:],
		alpha:    cplx[:size:size],
		du:       cplx[size : 2*size : 2*size],
		transfer: reals[size:],
	}
	bp.plan = CompiledPlan{n: size, segs: bp.segs[:0], wires: make([]int32, 0, ops)}
	bp.plan.setCoef(cplx[2*size:], 0)
	return bp
}

// lattice decomposes the unitary u and writes its lattice into a program:
// the slot settings into slots and, in physical order, each op's wire and
// the transfer the decomposition already derived into the plan b builds.
// It returns u's output phase screen, which lives in the compiler's
// scratch.
func (cp *compiler) lattice(u *mat.Dense, slots []MZI, b *planBuilder) ([]complex128, error) {
	placed, d, err := cp.decompose(u)
	if err != nil {
		return nil, err
	}
	size := u.Rows()
	cp.frontier = slices.Grow(cp.frontier[:0], size)[:size]
	cp.at = slices.Grow(cp.at[:0], size*size)[:size*size]
	if err := packSlots(placed, size, cp.frontier, cp.at); err != nil {
		return nil, err
	}
	// Ops within one column act on disjoint wire pairs, so column-major
	// order realizes the lattice exactly.
	for c := 0; c < size; c++ {
		for w := c % 2; w <= size-2; w += 2 {
			op := &placed[cp.at[c*size+w]-1]
			slots[c*size+w] = op.MZI
			b.addOp(w, op.T)
		}
	}
	return d, nil
}

// CompileBlock decomposes the Size×Size matrix m (whose singular values
// must lie in [0, 1]) into a reusable weight program. The result realizes m
// exactly up to numerical precision when applied to a partition or
// executed through its plan.
func CompileBlock(m *mat.Dense) (*BlockProgram, error) {
	cp := compilers.Get().(*compiler)
	defer compilers.Put(cp)
	return cp.compile(m)
}

func (cp *compiler) compile(m *mat.Dense) (*BlockProgram, error) {
	n := m.Rows()
	if m.Cols() != n {
		return nil, fmt.Errorf("photonic: CompileBlock requires a square matrix, got %d×%d", n, m.Cols())
	}
	svd := cp.svd.SVD(m)
	for _, sv := range svd.Sigma {
		if sv > 1+1e-9 {
			return nil, fmt.Errorf("photonic: singular value %g > 1; use CompileBlockScaled", sv)
		}
	}
	bp := newBlockProgram(n)
	copy(bp.Sigma, svd.Sigma)
	b := planBuilder{pl: &bp.plan}
	svd.V.AdjointInto(&cp.vAdj)
	dV, err := cp.lattice(&cp.vAdj, bp.vSlots, &b)
	if err != nil {
		return nil, fmt.Errorf("photonic: V* decomposition: %w", err)
	}
	for i := range bp.alpha {
		bp.alpha[i] = complex(bp.Sigma[i], 0) * dV[i]
	}
	b.addDiag(bp.alpha)
	dU, err := cp.lattice(svd.U, bp.uSlots, &b)
	if err != nil {
		return nil, fmt.Errorf("photonic: U decomposition: %w", err)
	}
	copy(bp.du, dU)
	b.addDiag(bp.du)
	cp.transfer = slices.Grow(cp.transfer[:0], n*n)
	for i, v := range bp.plan.TransferInto(cp.transfer[:n*n]) {
		bp.transfer[i] = real(v)
	}
	return bp, nil
}

// Blocks whose largest part lies outside [bandLo, bandHi] are brought to
// unit magnitude by an exact power of two before the spectral norm is
// taken. The Jacobi sweeps square every entry: beyond 2^±511 the square of
// the largest one is +Inf or 0, and already below 2^-458 the squares of
// entries 53 bits smaller underflow, so that the norm comes out short and
// the scaled block keeps a singular value above 1.
const (
	bandLo = 0x1p-400
	bandHi = 0x1p+400
)

// CompileBlockScaled compiles m/‖m‖₂ and records the scale in Scale;
// callers multiply MVM outputs by Scale (Sec 3.3.1). An all-zero block
// compiles the zero map with Scale 0. It returns an error for a block with
// a NaN or infinite entry, or whose spectral norm exceeds the float64 range.
func CompileBlockScaled(m *mat.Dense) (*BlockProgram, error) {
	cp := compilers.Get().(*compiler)
	defer compilers.Put(cp)
	return cp.compileScaled(m)
}

func (cp *compiler) compileScaled(m *mat.Dense) (*BlockProgram, error) {
	peak := m.MaxAbsPart()
	if math.IsNaN(peak) || math.IsInf(peak, 0) {
		return nil, fmt.Errorf("photonic: CompileBlockScaled: block has a non-finite entry")
	}
	exp := 0
	if peak != 0 && (peak < bandLo || peak > bandHi) {
		_, exp = math.Frexp(peak)
		mat.LdexpInto(&cp.scaled, m, -exp)
		m = &cp.scaled
	}
	scale := cp.svd.SpectralNorm(m)
	if scale == 0 {
		cp.scaled.Reset(m.Rows(), m.Cols())
	} else {
		mat.ScaleInto(&cp.scaled, complex(1/scale, 0), m)
	}
	bp, err := cp.compile(&cp.scaled)
	if err != nil {
		return nil, err
	}
	bp.Scale = scale
	if exp != 0 {
		bp.Scale = math.Ldexp(scale, exp)
		if math.IsInf(bp.Scale, 0) {
			return nil, fmt.Errorf("photonic: CompileBlockScaled: spectral norm of the block exceeds the float64 range")
		}
	}
	return bp, nil
}

// Plan returns the program's plan: V* ops, Σ·dV diagonal, U ops, dU
// diagonal, compiled with the program. The second result is always false —
// no call compiles anything — and remains only so that existing callers
// (benchmark/layers.go) keep building.
func (bp *BlockProgram) Plan() (*CompiledPlan, bool) { return &bp.plan, false }

// Matrix returns the Size×Size normalized matrix the program's lattice
// implements (multiply by Scale to recover the compiled block).
func (bp *BlockProgram) Matrix() *mat.Dense { return bp.plan.Matrix() }

// Transfer returns the real part of Matrix, column-major (column j, the
// real part of the lattice's response to basis input j, at
// [j·Size, (j+1)·Size)), from the program's own storage: callers must not
// modify it. It is all of the matrix that a real input's real output reads.
func (bp *BlockProgram) Transfer() []float64 { return bp.transfer }

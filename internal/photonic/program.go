package photonic

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"flumen/internal/mat"
)

// This file implements the reusable weight-program artifact behind the
// accelerator's program cache: CompileBlock runs the expensive SVD +
// Clements decomposition once and captures everything the fabric needs —
// the placed MZI settings of the V* and U lattices, the Σ·dV attenuator
// column, U's output phase screen and the spectral pre-scale — so the same
// weights can be re-applied to any same-size partition (Partition.Apply)
// or evaluated directly (Forward/MVM) without re-deriving phases.
//
// A compilation works in a pooled compiler's scratch (clements.go) and
// allocates only what the program keeps, each array at its final size: a
// lattice's settings are a flat slice indexed column·Size + topWire, its op
// list the same slots in physical order with the transfer each op was
// solved with.
//
// BlockProgram.Forward propagates E-fields through exactly the SVD-mesh
// lattice of Fig. 4 (V* columns → Σ attenuators → U columns → phase
// screen). Because the propagation depends only on the compiled artifact —
// not on which fabric partition executes it — every partition produces
// bit-identical results for the same program, which is what makes the
// parallel engine's output independent of work scheduling.

// progOp is one MZI application in a BlockProgram lattice, with its 2×2
// transfer matrix precomputed so the propagation hot path is pure complex
// arithmetic.
type progOp struct {
	w int // top wire of the pair the op acts on
	t [2][2]complex128
}

// BlockProgram is a finished weight program for one Size×Size block: the
// decomposition artifact produced by CompileBlock/CompileBlockScaled. It is
// immutable after compilation and safe for concurrent use.
type BlockProgram struct {
	// Size is the block (partition) dimension the program targets.
	Size int
	// Scale is the spectral-norm factor recorded by CompileBlockScaled
	// (1 for CompileBlock, 0 for an all-zero block): MVM outputs of the
	// normalized lattice must be multiplied by it (Sec 3.3.1).
	Scale float64
	// Sigma holds the singular values of the normalized block.
	Sigma []float64

	// Placed MZI settings for the V* and U lattices, indexed
	// relativeColumn·Size + relativeTopWire (meaningful where the two share
	// parity and the wire is not the last); consumed by Partition.Apply.
	vSlots, uSlots []MZI
	// alpha is the attenuator column: Σ_i·dV_i (V*'s phase screen folded
	// into the Σ stage, as the physical fabric realizes it).
	alpha []complex128
	// du is U's output phase screen.
	du []complex128
	// Column-ordered op lists with precomputed transfers for Forward.
	vOps, uOps []progOp

	// plan caches the compiled SoA kernel for this program. Because the
	// program is immutable the plan never goes stale; it is compiled once
	// on first use and lives as long as the program (so the engine's
	// weight-program cache amortizes compilation across calls).
	plan atomic.Pointer[CompiledPlan]
}

// newBlockProgram allocates a size-input program with every array at its
// final length, the two lattices sharing one backing array per kind.
func newBlockProgram(size int) *BlockProgram {
	slots := make([]MZI, 2*size*size)
	nOps := size * (size - 1) / 2
	ops := make([]progOp, 2*nOps)
	screens := make([]complex128, 2*size)
	return &BlockProgram{
		Size:   size,
		Scale:  1,
		Sigma:  make([]float64, size),
		vSlots: slots[: size*size : size*size],
		uSlots: slots[size*size:],
		alpha:  screens[:size:size],
		du:     screens[size:],
		vOps:   ops[:nOps:nOps],
		uOps:   ops[nOps:],
	}
}

// lattice decomposes the unitary u and writes its lattice into a program:
// the slot settings into slots and the op list, with the transfers the
// decomposition already derived, into ops. It returns u's output phase
// screen, which lives in the compiler's scratch.
func (cp *compiler) lattice(u *mat.Dense, slots []MZI, ops []progOp) ([]complex128, error) {
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
	k := 0
	for c := 0; c < size; c++ {
		for w := c % 2; w <= size-2; w += 2 {
			op := &placed[cp.at[c*size+w]-1]
			slots[c*size+w] = op.MZI
			ops[k] = progOp{w: w, t: op.T}
			k++
		}
	}
	return d, nil
}

// CompileBlock decomposes the Size×Size matrix m (whose singular values
// must lie in [0, 1]) into a reusable weight program. The result realizes m
// exactly up to numerical precision when applied to a partition or
// evaluated with Forward.
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
	svd.V.AdjointInto(&cp.vAdj)
	dV, err := cp.lattice(&cp.vAdj, bp.vSlots, bp.vOps)
	if err != nil {
		return nil, fmt.Errorf("photonic: V* decomposition: %w", err)
	}
	for i := range bp.alpha {
		bp.alpha[i] = complex(bp.Sigma[i], 0) * dV[i]
	}
	dU, err := cp.lattice(svd.U, bp.uSlots, bp.uOps)
	if err != nil {
		return nil, fmt.Errorf("photonic: U decomposition: %w", err)
	}
	copy(bp.du, dU)
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

// ForwardInto propagates the input E-fields through the compiled lattice
// (V* columns, Σ·dV attenuators, U columns, output phase screen), writing
// the normalized (unit-spectral-norm) output into dst and returning it.
// dst and in must both have length Size and may not alias.
func (bp *BlockProgram) ForwardInto(dst, in []complex128) []complex128 {
	if len(in) != bp.Size || len(dst) != bp.Size {
		panic(fmt.Sprintf("photonic: BlockProgram Forward lengths %d/%d, want %d", len(dst), len(in), bp.Size))
	}
	copy(dst, in)
	for _, op := range bp.vOps {
		a, b := dst[op.w], dst[op.w+1]
		dst[op.w] = op.t[0][0]*a + op.t[0][1]*b
		dst[op.w+1] = op.t[1][0]*a + op.t[1][1]*b
	}
	for i := range dst {
		dst[i] *= bp.alpha[i]
	}
	for _, op := range bp.uOps {
		a, b := dst[op.w], dst[op.w+1]
		dst[op.w] = op.t[0][0]*a + op.t[0][1]*b
		dst[op.w+1] = op.t[1][0]*a + op.t[1][1]*b
	}
	for i := range dst {
		dst[i] *= bp.du[i]
	}
	return dst
}

// Forward propagates in through the lattice, returning a fresh output
// vector in the normalized domain (no Scale rescale).
func (bp *BlockProgram) Forward(in []complex128) []complex128 {
	return bp.ForwardInto(make([]complex128, bp.Size), in)
}

// MVM performs the program's matrix-vector product including the
// spectral-norm rescale recorded by CompileBlockScaled.
func (bp *BlockProgram) MVM(x []complex128) []complex128 {
	out := bp.Forward(x)
	if bp.Scale != 1 {
		s := complex(bp.Scale, 0)
		for i := range out {
			out[i] *= s
		}
	}
	return out
}

// Plan returns the compiled propagation kernel for the program's lattice
// (V* ops, Σ·dV diagonal, U ops, dU diagonal), compiling it on first call.
// Propagating through the plan is bitwise-identical to ForwardInto. The
// second result reports whether this call performed the compilation (false
// when the cached plan was reused).
func (bp *BlockProgram) Plan() (*CompiledPlan, bool) {
	if pl := bp.plan.Load(); pl != nil {
		return pl, false
	}
	b := newPlanBuilder(bp.Size, len(bp.vOps)+len(bp.uOps))
	for _, op := range bp.vOps {
		b.addOp(op.w, op.t)
	}
	b.addDiag(bp.alpha)
	for _, op := range bp.uOps {
		b.addOp(op.w, op.t)
	}
	b.addDiag(bp.du)
	pl := b.build()
	// Racing compiles produce identical plans; first store wins, the rest
	// adopt it so HasCompiledPlan stays single-valued.
	if !bp.plan.CompareAndSwap(nil, pl) {
		return bp.plan.Load(), false
	}
	return pl, true
}

// HasCompiledPlan reports whether the program's kernel has been compiled
// (used by the engine's cache to account plan evictions).
func (bp *BlockProgram) HasCompiledPlan() bool { return bp.plan.Load() != nil }

// Matrix returns the Size×Size normalized matrix the program's lattice
// implements (multiply by Scale to recover the compiled block). One input
// and one output buffer are reused across the basis-vector propagations —
// the device-health monitor evaluates this per probe in the serving path.
func (bp *BlockProgram) Matrix() *mat.Dense {
	m := mat.New(bp.Size, bp.Size)
	in := make([]complex128, bp.Size)
	out := make([]complex128, bp.Size)
	for j := 0; j < bp.Size; j++ {
		clear(in)
		in[j] = 1
		bp.ForwardInto(out, in)
		m.SetCol(j, out)
	}
	return m
}

package photonic

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"sync"
	"sync/atomic"

	"flumen/internal/mat"
)

// FlumenMesh is the Flumen photonic fabric of Fig. 5: an N-input unitary
// rectangular MZIM augmented with a vertical column of N attenuating MZIs
// inserted at mid-mesh (between columns N/2-1 and N/2). In communication
// mode the whole structure routes point-to-point, multicast and broadcast
// patterns, and the attenuator column equalizes path-dependent optical
// loss. In computation mode, rows of bar-state MZIs partition the mesh into
// independent regions; an even-aligned region of K wires becomes a K-input
// SVD MZIM (V* in the left K columns adjoining the attenuators, Σ in the
// attenuator column, U in the right K columns), realizing arbitrary
// matrices with singular values in [0, 1].
//
// N must be a multiple of 4 so that the even halves align with the lattice
// parity (Sec 3.1.2).
type FlumenMesh struct {
	n     int
	mesh  *Mesh
	atten []Attenuator
	// mu guards the partition registry. Device state itself is not locked:
	// concurrent partition programming is safe because each partition writes
	// only the MZIs, attenuators and output phases of its own wire range,
	// which are disjoint between partitions.
	mu sync.Mutex
	// parts tracks active compute partitions keyed by their low wire.
	parts map[int]*Partition
	// attenGen counts attenuator-column mutations; together with the mesh
	// generation it validates the cached whole-fabric plan (compile.go).
	attenGen  atomic.Uint64
	planCache atomic.Pointer[fabricPlan]
}

// NewFlumenMesh returns an N-input Flumen mesh in the all-bar (pass-through)
// state with unit attenuators. N must be a positive multiple of 4.
func NewFlumenMesh(n int) *FlumenMesh {
	if n < 4 || n%4 != 0 {
		panic(fmt.Sprintf("photonic: Flumen mesh size %d must be a positive multiple of 4", n))
	}
	f := &FlumenMesh{n: n, mesh: NewMesh(n), atten: make([]Attenuator, n), parts: make(map[int]*Partition)}
	for i := range f.atten {
		f.atten[i] = Unit()
	}
	return f
}

// N returns the number of input/output ports.
func (f *FlumenMesh) N() int { return f.n }

// NumMZIs returns the device count: N(N-1)/2 mesh MZIs + N attenuators.
func (f *FlumenMesh) NumMZIs() int { return f.mesh.NumMZIs() + len(f.atten) }

// Mesh exposes the underlying unitary mesh (for device-level inspection).
func (f *FlumenMesh) Mesh() *Mesh { return f.mesh }

// Attenuator returns the attenuator on wire w.
func (f *FlumenMesh) Attenuator(w int) Attenuator { return f.atten[w] }

// Forward propagates input E-fields through the left mesh half, the
// attenuator column, the right mesh half, and the output phase screen — a
// batch of one through the fabric's cached plan (compile.go).
func (f *FlumenMesh) Forward(in []complex128) []complex128 {
	state := slices.Clone(in)
	f.plan().ForwardBatch(state, 1)
	return state
}

// Matrix returns the N×N matrix currently implemented by the fabric.
func (f *FlumenMesh) Matrix() *mat.Dense { return f.plan().Matrix() }

// Reset returns the fabric to the all-bar pass-through state, releasing all
// partitions and restoring unit attenuators.
func (f *FlumenMesh) Reset() {
	f.mesh.SetAllBar()
	for i := range f.atten {
		f.atten[i] = Unit()
	}
	f.attenGen.Add(1)
	f.mu.Lock()
	f.parts = make(map[int]*Partition)
	f.mu.Unlock()
}

// ProgramUnitary programs the whole fabric as one large unitary (compute or
// structured-communication use). Any active partitions are released and the
// attenuators set to unity.
func (f *FlumenMesh) ProgramUnitary(u *mat.Dense) {
	f.Reset()
	f.mesh.ProgramUnitary(u)
}

// RoutePermutation configures the fabric for point-to-point communication:
// the signal entering port i exits at port perm[i]. Partitions are
// released; attenuators are reset to unity (call EqualizeLoss afterwards to
// model the loss-equalization function of the attenuator column).
func (f *FlumenMesh) RoutePermutation(perm []int) {
	f.Reset()
	f.mesh.RoutePermutation(perm)
}

// RouteBroadcast configures the fabric so input src reaches all outputs
// with equal power.
func (f *FlumenMesh) RouteBroadcast(src int) {
	f.Reset()
	f.mesh.RouteBroadcast(src)
}

// RouteMulticast configures the fabric so input src reaches each output in
// dsts with equal power.
func (f *FlumenMesh) RouteMulticast(src int, dsts []int) {
	f.Reset()
	f.mesh.RouteMulticast(src, dsts)
}

// PathMZICount returns the number of mesh MZIs traversed from input src
// under the current cross/bar routing, excluding the attenuator column
// (matching the paper's path accounting), plus the output port reached.
func (f *FlumenMesh) PathMZICount(src int) (count, outPort int) {
	return f.mesh.PathMZICount(src)
}

// EqualizeLoss sets the attenuator column so every routed source-destination
// path experiences the same total loss as the worst-case path, given a
// per-MZI insertion loss in dB (Sec 3.1.2). It must be called after a
// RoutePermutation configuration; it panics if a traversed MZI is in a
// splitting state. Returns the equalized per-path loss in dB (excluding the
// attenuator's own insertion loss).
func (f *FlumenMesh) EqualizeLoss(perMZIdB float64) float64 {
	counts := make([]int, f.n)
	maxCount := 0
	// The attenuator column sits mid-mesh; find each path's wire at that
	// point to attach the right attenuator. Trace to mid-mesh.
	midWire := make([]int, f.n)
	for src := 0; src < f.n; src++ {
		w := src
		count := 0
		for c := 0; c < f.n; c++ {
			if c == f.n/2 {
				midWire[src] = w
			}
			z := f.mesh.mziTouching(c, w)
			if z == nil {
				continue
			}
			count++
			switch {
			case z.mzi.IsBar():
			case z.mzi.IsCross():
				if w == z.top {
					w = z.top + 1
				} else {
					w = z.top
				}
			default:
				panic("photonic: EqualizeLoss requires cross/bar routing")
			}
		}
		counts[src] = count
		if count > maxCount {
			maxCount = count
		}
	}
	for src := 0; src < f.n; src++ {
		deficitDB := float64(maxCount-counts[src]) * perMZIdB
		amp := math.Pow(10, -deficitDB/20) // field attenuation for power loss in dB
		f.atten[midWire[src]] = NewAttenuator(complex(amp, 0))
	}
	f.attenGen.Add(1)
	return float64(maxCount) * perMZIdB
}

// Partition is a compute region of the Flumen fabric: wires
// [Lo, Lo+Size-1] isolated by bar-state barrier rows and programmed as a
// Size-input SVD MZIM. Scale holds the spectral-norm factor recorded by
// ProgramScaled (outputs must be multiplied by it to undo the pre-scaling
// of Sec 3.3.1).
type Partition struct {
	f     *FlumenMesh
	Lo    int
	Size  int
	Scale float64
}

// NewPartition isolates wires [lo, lo+size-1] as a compute partition.
// lo and size must be even, size ≥ 2, and size ≤ N/2 (the SVD layout needs
// `size` mesh columns on each side of the attenuator column). The region
// must not overlap an existing partition. Barrier MZI rows above and below
// the region are placed in the bar state, and all interior MZIs outside the
// SVD column span are set to bar as pass-throughs.
func (f *FlumenMesh) NewPartition(lo, size int) (*Partition, error) {
	if lo < 0 || size < 2 || lo+size > f.n {
		return nil, fmt.Errorf("photonic: partition [%d,%d) out of range", lo, lo+size)
	}
	if lo%2 != 0 || size%2 != 0 {
		return nil, fmt.Errorf("photonic: partition [%d,%d) must be even-aligned with even size", lo, lo+size)
	}
	if size > f.n/2 {
		return nil, fmt.Errorf("photonic: partition size %d exceeds N/2 = %d", size, f.n/2)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, p := range f.parts {
		if lo < p.Lo+p.Size && p.Lo < lo+size {
			return nil, fmt.Errorf("photonic: partition [%d,%d) overlaps existing [%d,%d)", lo, lo+size, p.Lo, p.Lo+p.Size)
		}
	}
	p := &Partition{f: f, Lo: lo, Size: size}
	f.setBarrier(lo - 1) // pair (lo-1, lo), if it exists
	f.setBarrier(lo + size - 1)
	// Idle interior MZIs outside the SVD span: set to bar.
	cV0 := f.n/2 - size
	cU1 := f.n/2 + size
	for c := 0; c < f.n; c++ {
		if c >= cV0 && c < cU1 {
			continue
		}
		for w := lo + c%2 - lo%2; w <= lo+size-2; w += 2 {
			if f.mesh.HasSlot(c, w) {
				f.mesh.SetMZI(c, w, Bar())
			}
		}
	}
	f.parts[lo] = p
	return p, nil
}

// setBarrier puts the MZI row with top wire m into the bar state (φ=0) in
// every column where it exists. A bar MZI passes its top wire with unit
// phase and its bottom wire with phase -1; partition programming accounts
// for the -1 via pending-phase propagation.
func (f *FlumenMesh) setBarrier(m int) {
	if m < 0 || m > f.n-2 {
		return
	}
	for c := m % 2; c < f.n; c += 2 {
		if f.mesh.HasSlot(c, m) {
			f.mesh.SetMZI(c, m, Bar())
		}
	}
}

// Release removes the partition, returning its wires to the communication
// pool (the fabric devices keep their last state until re-routed).
func (p *Partition) Release() {
	p.f.mu.Lock()
	delete(p.f.parts, p.Lo)
	p.f.mu.Unlock()
}

// Program configures the partition to implement the Size×Size matrix m,
// whose singular values must lie in [0, 1]. The realized transform is exact
// up to numerical precision: barrier and idle bar-state MZIs introduce
// parasitic per-wire phases (-1 on bar bottom arms), which are propagated
// forward and absorbed into downstream programmable MZIs, the attenuator
// settings, and the output phase screen.
//
// Program is CompileBlock followed by Apply; callers that stream the same
// weights repeatedly should compile once and re-Apply the cached artifact.
func (p *Partition) Program(m *mat.Dense) error {
	if m.Rows() != p.Size || m.Cols() != p.Size {
		return fmt.Errorf("photonic: partition is %d-input, matrix is %d×%d", p.Size, m.Rows(), m.Cols())
	}
	bp, err := CompileBlock(m)
	if err != nil {
		return err
	}
	return p.Apply(bp)
}

// Apply programs the partition from a precompiled BlockProgram, re-deriving
// only the cheap parasitic-phase absorption; the SVD and Clements
// decompositions are reused from the artifact. Applying the same program to
// partitions at different offsets realizes the same transform (the absorbed
// phases cancel exactly). Concurrent Apply calls on distinct partitions of
// one fabric are safe: each writes only its own wire range.
func (p *Partition) Apply(bp *BlockProgram) error {
	if bp.Size != p.Size {
		return fmt.Errorf("photonic: partition is %d-input, program is %d-input", p.Size, bp.Size)
	}
	n := p.f.n
	cV0 := n/2 - p.Size
	cU0 := n / 2
	pend := make([]complex128, p.Size)
	for i := range pend {
		pend[i] = 1
	}
	hasUpperBarrier := p.Lo > 0
	upperBarrierParity := ((p.Lo - 1) % 2) // column parity where pair (Lo-1, Lo) exists
	if upperBarrierParity < 0 {
		upperBarrierParity += 2
	}
	for c := 0; c < n; c++ {
		// Parasitic -1 on our top wire from the barrier above (we are its
		// bottom arm).
		if hasUpperBarrier && c%2 == upperBarrierParity {
			pend[0] = -pend[0]
		}
		// Handle region-interior pairs in this column.
		for w := p.Lo; w <= p.Lo+p.Size-2; w++ {
			if (w%2) != (c%2) || !p.f.mesh.HasSlot(c, w) {
				continue
			}
			r := w - p.Lo
			var op MZI
			var programmable bool
			switch {
			case c >= cV0 && c < cV0+p.Size:
				op, programmable = bp.vSlots[(c-cV0)*p.Size+r], true
			case c >= cU0 && c < cU0+p.Size:
				op, programmable = bp.uSlots[(c-cU0)*p.Size+r], true
			}
			if programmable {
				q1, q2, phys := absorbPending(op, pend[r], pend[r+1])
				p.f.mesh.SetMZI(c, w, phys)
				// T_phys·diag(p) = diag(conj q)·T_op, so the outgoing pending
				// phase is the conjugate of the solver's diagonal.
				pend[r], pend[r+1] = cmplx.Conj(q1), cmplx.Conj(q2)
			} else {
				// Idle bar pass-through: top unit phase, bottom -1.
				p.f.mesh.SetMZI(c, w, Bar())
				pend[r+1] = -pend[r+1]
			}
		}
		// The attenuator column sits after mesh column n/2-1: program Σ,
		// folding in V*'s phase screen and clearing pending phases.
		if c == n/2-1 {
			for i := 0; i < p.Size; i++ {
				alpha := bp.alpha[i] * cmplx.Conj(pend[i])
				p.f.atten[p.Lo+i] = NewAttenuator(alpha)
				pend[i] = 1
			}
		}
	}
	p.f.attenGen.Add(1)
	// Output phase screen: cancel pending phases and apply U's screen.
	for i := 0; i < p.Size; i++ {
		p.f.mesh.SetOutputPhase(p.Lo+i, bp.du[i]*cmplx.Conj(pend[i]))
	}
	p.Scale = bp.Scale
	return nil
}

// absorbPending rewrites the intended MZI op so that incoming parasitic
// phases (pTop, pBot) are cancelled: it solves
// T_op·diag(conj pTop, conj pBot) = diag(q1,q2)·T_phys and returns the new
// pending phases and the physical MZI to place.
func absorbPending(op MZI, pTop, pBot complex128) (q1, q2 complex128, phys MZI) {
	t := op.Transfer()
	cpt := cmplx.Conj(pTop)
	cpb := cmplx.Conj(pBot)
	q1, q2, phys, _ = solveDiagT(t[0][0]*cpt, t[0][1]*cpb, t[1][0]*cpt, t[1][1]*cpb)
	return q1, q2, phys
}

// Matrix returns the Size×Size matrix the partition currently implements.
func (p *Partition) Matrix() *mat.Dense {
	return p.MatrixInto(mat.New(p.Size, p.Size))
}

// MatrixInto writes the partition's Size×Size matrix into m and returns it:
// the partition's block of the fabric plan's matrix, read with the other
// wires dark.
func (p *Partition) MatrixInto(m *mat.Dense) *mat.Dense {
	if m.Rows() != p.Size || m.Cols() != p.Size {
		panic("photonic: partition MatrixInto size mismatch")
	}
	return p.f.plan().blockInto(m, p.Lo)
}

// RoutePermutationRange configures point-to-point communication among the
// contiguous wire range [wLo, wLo+len(perm)-1] without touching devices
// outside it: the signal entering wLo+i exits at wLo+perm[i]. It is used to
// run communication alongside active compute partitions (Fig. 5). The range
// must not overlap any partition.
func (f *FlumenMesh) RoutePermutationRange(wLo int, perm []int) {
	k := len(perm)
	if wLo < 0 || wLo+k > f.n {
		panic("photonic: RoutePermutationRange out of range")
	}
	f.mu.Lock()
	for _, p := range f.parts {
		if wLo < p.Lo+p.Size && p.Lo < wLo+k {
			f.mu.Unlock()
			panic("photonic: RoutePermutationRange overlaps a compute partition")
		}
	}
	f.mu.Unlock()
	seen := make([]bool, k)
	for _, d := range perm {
		if d < 0 || d >= k || seen[d] {
			panic("photonic: RoutePermutationRange argument is not a permutation")
		}
		seen[d] = true
	}
	dest := make([]int, k)
	copy(dest, perm)
	for c := 0; c < f.n; c++ {
		for w := wLo; w <= wLo+k-2; w++ {
			if (w%2) != (c%2) || !f.mesh.HasSlot(c, w) {
				continue
			}
			r := w - wLo
			if dest[r] > dest[r+1] {
				f.mesh.SetMZI(c, w, Cross())
				dest[r], dest[r+1] = dest[r+1], dest[r]
			} else {
				f.mesh.SetMZI(c, w, Bar())
			}
		}
	}
	for r, d := range dest {
		if d != r {
			panic(fmt.Sprintf("photonic: range routing failed: wire %d holds dest %d", wLo+r, wLo+d))
		}
	}
	// Reset attenuators and phases on the comm wires only.
	for w := wLo; w < wLo+k; w++ {
		f.atten[w] = Unit()
		f.mesh.SetOutputPhase(w, 1)
	}
	f.attenGen.Add(1)
}

package photonic

import (
	"fmt"
	"math"
	"sync/atomic"

	"flumen/internal/mat"
)

// Mesh is a rectangular (Clements-style) universal multiport interferometer:
// an N-input MZIM with N columns of MZIs. Column c holds MZIs on adjacent
// wire pairs (m, m+1) with m ≡ c (mod 2), for a total of N(N-1)/2 devices.
// Light propagates column 0 → column depth-1, followed by an output phase
// screen of N single-mode phase shifters (part of the Clements construction).
type Mesh struct {
	n     int
	depth int
	// cols[c][m] is the MZI whose top wire is m in column c, or nil when
	// the (c, m) slot does not exist in the rectangular lattice.
	cols     [][]*MZI
	outPhase []complex128 // unit-modulus output phase screen
	// gen counts device mutations; a cached CompiledPlan is valid only while
	// the generation it was compiled from is still current (compile.go). The
	// plan is the mesh's only propagation path.
	gen  atomic.Uint64
	plan atomic.Pointer[meshPlan]
}

// invalidate marks all cached plans over this mesh stale.
func (m *Mesh) invalidate() { m.gen.Add(1) }

// NewMesh returns an N-input rectangular mesh with every MZI in the bar
// state (signals pass straight through) and an identity phase screen.
func NewMesh(n int) *Mesh {
	if n < 2 {
		panic(fmt.Sprintf("photonic: mesh size %d < 2", n))
	}
	m := &Mesh{n: n, depth: n, cols: make([][]*MZI, n), outPhase: make([]complex128, n)}
	for c := 0; c < n; c++ {
		m.cols[c] = make([]*MZI, n-1)
		for w := c % 2; w <= n-2; w += 2 {
			z := Bar()
			m.cols[c][w] = &z
		}
	}
	for i := range m.outPhase {
		m.outPhase[i] = 1
	}
	return m
}

// N returns the number of input/output ports.
func (m *Mesh) N() int { return m.n }

// Depth returns the number of MZI columns.
func (m *Mesh) Depth() int { return m.depth }

// NumMZIs returns the total number of MZIs in the mesh.
func (m *Mesh) NumMZIs() int {
	count := 0
	for _, col := range m.cols {
		for _, z := range col {
			if z != nil {
				count++
			}
		}
	}
	return count
}

// HasSlot reports whether an MZI exists at column c, top wire w.
func (m *Mesh) HasSlot(c, w int) bool {
	return c >= 0 && c < m.depth && w >= 0 && w <= m.n-2 && m.cols[c][w] != nil
}

// SetMZI assigns the MZI at column c, top wire w.
func (m *Mesh) SetMZI(c, w int, z MZI) {
	if !m.HasSlot(c, w) {
		panic(fmt.Sprintf("photonic: no MZI at column %d wire %d", c, w))
	}
	*m.cols[c][w] = z
	m.invalidate()
}

// SetAllBar puts every MZI into the bar state and resets the phase screen,
// so the mesh passes each input straight to the same-numbered output (up to
// per-wire phase).
func (m *Mesh) SetAllBar() {
	for _, col := range m.cols {
		for _, z := range col {
			if z != nil {
				*z = Bar()
			}
		}
	}
	for i := range m.outPhase {
		m.outPhase[i] = 1
	}
	m.invalidate()
}

// SetOutputPhase assigns the output phase screen element at wire w; p must
// have unit modulus.
func (m *Mesh) SetOutputPhase(w int, p complex128) {
	if math.Abs(real(p)*real(p)+imag(p)*imag(p)-1) > 1e-9 {
		panic("photonic: output phase must have unit modulus")
	}
	m.outPhase[w] = p
	m.invalidate()
}

// Matrix returns the N×N unitary implemented by the mesh: the identity
// propagated through the mesh's plan.
func (m *Mesh) Matrix() *mat.Dense { return m.CompilePlan().Matrix() }

// PathMZICount returns, for the current cross/bar routing state, the number
// of MZIs traversed from input port src to its (unique) output. It panics
// if any traversed MZI is in a splitting state, since then the path is not
// unique. The second return value is the output port reached. This is the
// quantity the Flumen attenuator column equalizes (Sec 3.1.2: e.g. longest
// path 7 MZIs vs shortest 4 in an 8-input mesh).
func (m *Mesh) PathMZICount(src int) (count, outPort int) {
	if src < 0 || src >= m.n {
		panic("photonic: PathMZICount port out of range")
	}
	w := src
	for c := 0; c < m.depth; c++ {
		z := m.mziTouching(c, w)
		if z == nil {
			continue
		}
		count++
		switch {
		case z.mzi.IsBar():
			// stay on the same wire
		case z.mzi.IsCross():
			if w == z.top {
				w = z.top + 1
			} else {
				w = z.top
			}
		default:
			panic(fmt.Sprintf("photonic: PathMZICount through splitting MZI at col %d wire %d", c, z.top))
		}
	}
	return count, w
}

type touchedMZI struct {
	top int
	mzi MZI
}

// mziTouching returns the MZI in column c that has wire w as its top or
// bottom port, or nil if the wire passes the column untouched.
func (m *Mesh) mziTouching(c, w int) *touchedMZI {
	col := m.cols[c]
	if w <= m.n-2 && col[w] != nil {
		return &touchedMZI{top: w, mzi: *col[w]}
	}
	if w-1 >= 0 && col[w-1] != nil {
		return &touchedMZI{top: w - 1, mzi: *col[w-1]}
	}
	return nil
}

// RoutePermutation configures the mesh (cross/bar states only) so that the
// signal entering input i exits at output perm[i]. perm must be a valid
// permutation of 0..N-1. Routing uses odd-even transposition sorting, which
// the rectangular lattice implements natively: column c compares adjacent
// pairs of parity c mod 2, and an MZI is set to cross exactly when the two
// signals on its wires need to swap to move toward their destinations.
// The whole-mesh configuration is non-blocking: any permutation routes in
// the N columns available (Sec 3.2).
func (m *Mesh) RoutePermutation(perm []int) {
	if len(perm) != m.n {
		panic("photonic: RoutePermutation length mismatch")
	}
	seen := make([]bool, m.n)
	for _, p := range perm {
		if p < 0 || p >= m.n || seen[p] {
			panic("photonic: RoutePermutation argument is not a permutation")
		}
		seen[p] = true
	}
	// dest[w] is the destination port of the signal currently on wire w.
	dest := make([]int, m.n)
	copy(dest, perm)
	for c := 0; c < m.depth; c++ {
		col := m.cols[c]
		for w := c % 2; w <= m.n-2; w += 2 {
			if col[w] == nil {
				continue
			}
			if dest[w] > dest[w+1] {
				*col[w] = Cross()
				dest[w], dest[w+1] = dest[w+1], dest[w]
			} else {
				*col[w] = Bar()
			}
		}
	}
	for w, d := range dest {
		if d != w {
			panic(fmt.Sprintf("photonic: odd-even routing failed: wire %d holds dest %d", w, d))
		}
	}
	for i := range m.outPhase {
		m.outPhase[i] = 1
	}
	m.invalidate()
}

// RouteBroadcast configures the mesh so the signal entering input src is
// split equally across all N outputs using intermediate splitting states
// (Fig. 6b). Other inputs must be dark.
func (m *Mesh) RouteBroadcast(src int) {
	m.RouteMulticast(src, allPorts(m.n))
}

func allPorts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// RouteMulticast configures the mesh so the signal entering input src is
// split equally (in power) across the given destination output ports,
// using intermediate MZI splitting states. dsts must be non-empty and
// duplicate-free. Only the src input's behaviour is specified; other inputs
// must be dark.
//
// As the paper notes (Sec 3.2), a one-to-many pattern corresponds to a
// unitary matrix whose src column has E-field magnitude sqrt(1/k) at each
// of the k destinations. We construct such a unitary by completing the
// target column to an orthonormal basis and program it with the Clements
// decomposition, which realizes the splitting tree.
func (m *Mesh) RouteMulticast(src int, dsts []int) {
	if src < 0 || src >= m.n {
		panic("photonic: RouteMulticast source out of range")
	}
	if len(dsts) == 0 {
		panic("photonic: RouteMulticast needs at least one destination")
	}
	seen := make([]bool, m.n)
	for _, d := range dsts {
		if d < 0 || d >= m.n || seen[d] {
			panic("photonic: RouteMulticast invalid destination set")
		}
		seen[d] = true
	}
	amp := complex(1/math.Sqrt(float64(len(dsts))), 0)
	target := make([]complex128, m.n)
	for _, d := range dsts {
		target[d] = amp
	}
	u := unitaryWithColumn(m.n, src, target)
	m.ProgramUnitary(u)
}

// unitaryWithColumn builds an n×n unitary whose column col equals the given
// unit vector, completing the remaining columns by Gram-Schmidt over the
// canonical basis.
func unitaryWithColumn(n, col int, v []complex128) *mat.Dense {
	u := mat.New(n, n)
	u.SetCol(0, v)
	// Fill remaining columns with an orthonormal completion, then rotate the
	// completed basis so the target sits at index col.
	cols := [][]complex128{v}
	for cand := 0; cand < n && len(cols) < n; cand++ {
		vec := make([]complex128, n)
		vec[cand] = 1
		for pass := 0; pass < 2; pass++ {
			for _, c := range cols {
				dot := mat.VecDot(c, vec)
				for i := range vec {
					vec[i] -= dot * c[i]
				}
			}
		}
		norm := mat.VecNorm(vec)
		if norm < 1e-7 {
			continue
		}
		for i := range vec {
			vec[i] /= complex(norm, 0)
		}
		cols = append(cols, vec)
	}
	if len(cols) != n {
		panic("photonic: failed to complete multicast basis")
	}
	// Place target at column `col`, the rest in order.
	u.SetCol(col, cols[0])
	next := 1
	for j := 0; j < n; j++ {
		if j == col {
			continue
		}
		u.SetCol(j, cols[next])
		next++
	}
	return u
}

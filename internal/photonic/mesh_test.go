package photonic

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"flumen/internal/mat"
)

func TestMeshStructure(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		m := NewMesh(n)
		if got, want := m.NumMZIs(), n*(n-1)/2; got != want {
			t.Fatalf("NewMesh(%d).NumMZIs() = %d, want %d", n, got, want)
		}
		if m.Depth() != n {
			t.Fatalf("NewMesh(%d).Depth() = %d, want %d", n, m.Depth(), n)
		}
		// Slot parity: MZIs only exist where column and wire parities match.
		for c := 0; c < n; c++ {
			for w := 0; w <= n-2; w++ {
				if m.HasSlot(c, w) != (c%2 == w%2) {
					t.Fatalf("slot (%d,%d) existence wrong for n=%d", c, w, n)
				}
			}
		}
	}
}

func TestMeshDefaultIsDiagonal(t *testing.T) {
	m := NewMesh(6)
	u := m.Matrix()
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			a := cmplx.Abs(u.At(i, j))
			if i == j && math.Abs(a-1) > 1e-12 {
				t.Fatalf("all-bar mesh diagonal |u[%d][%d]| = %g", i, j, a)
			}
			if i != j && a > 1e-12 {
				t.Fatalf("all-bar mesh off-diagonal |u[%d][%d]| = %g", i, j, a)
			}
		}
	}
}

func TestMeshForwardPreservesPower(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMesh(8)
	m.ProgramUnitary(mat.RandomUnitary(8, rng))
	in := make([]complex128, 8)
	for i := range in {
		in[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	out := forward(m.CompilePlan(), in)
	if math.Abs(mat.VecNorm(out)-mat.VecNorm(in)) > 1e-10*mat.VecNorm(in) {
		t.Fatalf("unitary mesh does not preserve power: in %g out %g", mat.VecNorm(in), mat.VecNorm(out))
	}
}

func TestClementsDecomposeReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{2, 3, 4, 5, 6, 8, 12, 16} {
		u := mat.RandomUnitary(n, rng)
		m := NewMesh(n)
		m.ProgramUnitary(u)
		got := m.Matrix()
		if err := mat.MaxAbsDiff(got, u); err > 1e-9 {
			t.Fatalf("Clements reconstruction failed for n=%d: err=%g", n, err)
		}
	}
}

func TestClementsIdentity(t *testing.T) {
	m := NewMesh(8)
	m.ProgramUnitary(mat.Identity(8))
	if err := mat.MaxAbsDiff(m.Matrix(), mat.Identity(8)); err > 1e-10 {
		t.Fatalf("identity programming error %g", err)
	}
}

func TestClementsPermutationMatrix(t *testing.T) {
	// A permutation matrix is unitary and should decompose exactly.
	n := 8
	perm := []int{3, 7, 0, 5, 1, 6, 2, 4}
	u := mat.New(n, n)
	for i, p := range perm {
		u.Set(p, i, 1)
	}
	m := NewMesh(n)
	m.ProgramUnitary(u)
	if err := mat.MaxAbsDiff(m.Matrix(), u); err > 1e-9 {
		t.Fatalf("permutation matrix decomposition error %g", err)
	}
}

func TestDecomposeRejectsNonUnitary(t *testing.T) {
	a := mat.FromReal([][]float64{{1, 2}, {3, 4}})
	if _, _, err := Decompose(a); err == nil {
		t.Fatal("Decompose accepted a non-unitary matrix")
	}
}

func TestDecomposeRejectsNonSquare(t *testing.T) {
	if _, _, err := Decompose(mat.New(2, 3)); err == nil {
		t.Fatal("Decompose accepted a non-square matrix")
	}
}

func TestDecomposeOpCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 4, 8} {
		ops, d, err := Decompose(mat.RandomUnitary(n, rng))
		if err != nil {
			t.Fatal(err)
		}
		if len(ops) != n*(n-1)/2 {
			t.Fatalf("n=%d: %d ops, want %d", n, len(ops), n*(n-1)/2)
		}
		if len(d) != n {
			t.Fatalf("n=%d: phase screen length %d", n, len(d))
		}
		for _, p := range d {
			if math.Abs(cmplx.Abs(p)-1) > 1e-9 {
				t.Fatalf("phase screen element |%v| != 1", p)
			}
		}
	}
}

func TestRoutePermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{2, 4, 8, 16} {
		m := NewMesh(n)
		for trial := 0; trial < 10; trial++ {
			perm := rng.Perm(n)
			m.RoutePermutation(perm)
			for src := 0; src < n; src++ {
				in := make([]complex128, n)
				in[src] = 1
				out := forward(m.CompilePlan(), in)
				for w := 0; w < n; w++ {
					p := cAbs2(out[w])
					if w == perm[src] && math.Abs(p-1) > 1e-12 {
						t.Fatalf("n=%d perm=%v: src %d delivered power %g to dest", n, perm, src, p)
					}
					if w != perm[src] && p > 1e-12 {
						t.Fatalf("n=%d perm=%v: src %d leaked power %g to port %d", n, perm, src, p, w)
					}
				}
			}
		}
	}
}

func TestRoutePermutationRejectsInvalid(t *testing.T) {
	m := NewMesh(4)
	for _, bad := range [][]int{{0, 1, 2}, {0, 0, 1, 2}, {0, 1, 2, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RoutePermutation(%v) did not panic", bad)
				}
			}()
			m.RoutePermutation(bad)
		}()
	}
}

func TestPathMZICounts(t *testing.T) {
	// All-bar 8-mesh: edge wires traverse 4 MZIs, interior wires up to 8.
	m := NewMesh(8)
	count0, out0 := m.PathMZICount(0)
	if out0 != 0 {
		t.Fatalf("all-bar mesh moved wire 0 to %d", out0)
	}
	if count0 != 4 {
		t.Fatalf("wire 0 traverses %d MZIs, want 4", count0)
	}
	count3, _ := m.PathMZICount(3)
	if count3 != 8 {
		t.Fatalf("wire 3 traverses %d MZIs, want 8", count3)
	}
	// Path-length spread motivates the attenuator column (Sec 3.1.2).
	minC, maxC := 99, 0
	for w := 0; w < 8; w++ {
		c, _ := m.PathMZICount(w)
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if minC == maxC {
		t.Fatal("expected unequal path MZI counts across ports")
	}
}

func TestPathMZICountConsistentWithRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMesh(8)
	perm := rng.Perm(8)
	m.RoutePermutation(perm)
	for src := 0; src < 8; src++ {
		_, out := m.PathMZICount(src)
		if out != perm[src] {
			t.Fatalf("PathMZICount traced src %d to %d, want %d", src, out, perm[src])
		}
	}
}

// TestRoutedPathLengths pins how many MZIs the paths of a routed
// permutation cross, over 200 seeded permutations at each N. Every MZI
// carries two paths, so the mean is exactly N − 1. The longest path of
// every permutation crosses the whole depth N (7 or 8 at N = 8). No path
// crosses fewer than N/2, an edge wire that every other column skips, and
// some path crosses exactly that. The "k/2 mesh MZIs" that
// optics.FlumenWorstCaseLossDB charges for the worst-case path is this
// shortest path, not the longest (ROADMAP item 19 owns the loss law).
func TestRoutedPathLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{8, 16, 32, 64} {
		m := NewMesh(n)
		shortest := n
		for trial := 0; trial < 200; trial++ {
			m.RoutePermutation(rng.Perm(n))
			sum, longest := 0, 0
			for src := 0; src < n; src++ {
				c, _ := m.PathMZICount(src)
				sum += c
				shortest, longest = min(shortest, c), max(longest, c)
			}
			if sum != n*(n-1) {
				t.Fatalf("N=%d permutation %d: the paths cross %d MZIs in all, want N(N−1) = %d", n, trial, sum, n*(n-1))
			}
			if longest != n && !(n == 8 && longest == 7) {
				t.Fatalf("N=%d permutation %d: the longest path crosses %d MZIs, want N", n, trial, longest)
			}
		}
		if shortest != n/2 {
			t.Errorf("N=%d: the shortest path crosses %d MZIs, want N/2 = %d", n, shortest, n/2)
		}
	}
}

func TestPathMZICountPanicsOnSplitter(t *testing.T) {
	m := NewMesh(4)
	m.RouteBroadcast(0)
	defer func() {
		if recover() == nil {
			t.Fatal("PathMZICount through splitter did not panic")
		}
	}()
	m.PathMZICount(0)
}

func TestRouteBroadcast(t *testing.T) {
	for _, n := range []int{4, 8} {
		for src := 0; src < n; src++ {
			m := NewMesh(n)
			m.RouteBroadcast(src)
			in := make([]complex128, n)
			in[src] = 1
			out := forward(m.CompilePlan(), in)
			for w := 0; w < n; w++ {
				if math.Abs(cAbs2(out[w])-1/float64(n)) > 1e-10 {
					t.Fatalf("n=%d src=%d: output %d power %g, want %g", n, src, w, cAbs2(out[w]), 1/float64(n))
				}
			}
		}
	}
}

func TestRouteMulticastSubset(t *testing.T) {
	m := NewMesh(8)
	dsts := []int{1, 3, 6}
	m.RouteMulticast(2, dsts)
	in := make([]complex128, 8)
	in[2] = 1
	out := forward(m.CompilePlan(), in)
	want := 1.0 / 3
	isDst := map[int]bool{1: true, 3: true, 6: true}
	for w := 0; w < 8; w++ {
		p := cAbs2(out[w])
		if isDst[w] && math.Abs(p-want) > 1e-10 {
			t.Fatalf("multicast dest %d power %g, want %g", w, p, want)
		}
		if !isDst[w] && p > 1e-10 {
			t.Fatalf("multicast leaked %g to port %d", p, w)
		}
	}
}

func TestRouteMulticastSingleDestActsAsPointToPoint(t *testing.T) {
	m := NewMesh(4)
	m.RouteMulticast(0, []int{3})
	in := []complex128{1, 0, 0, 0}
	out := forward(m.CompilePlan(), in)
	if math.Abs(cAbs2(out[3])-1) > 1e-10 {
		t.Fatalf("single-dest multicast power %g at dest", cAbs2(out[3]))
	}
}

func TestRouteMulticastRejectsInvalid(t *testing.T) {
	m := NewMesh(4)
	for _, tc := range []struct {
		src  int
		dsts []int
	}{
		{src: -1, dsts: []int{0}},
		{src: 0, dsts: nil},
		{src: 0, dsts: []int{1, 1}},
		{src: 0, dsts: []int{5}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RouteMulticast(%d, %v) did not panic", tc.src, tc.dsts)
				}
			}()
			m.RouteMulticast(tc.src, tc.dsts)
		}()
	}
}

func TestBroadcastFig6bTransferMatrix(t *testing.T) {
	// Paper Fig 6(b): 4-input broadcast from port 0; squaring the output
	// E-field magnitudes of U·[1 0 0 0]^T gives [0.25 0.25 0.25 0.25].
	m := NewMesh(4)
	m.RouteBroadcast(0)
	u := m.Matrix()
	if !u.IsUnitary(1e-10) {
		t.Fatal("broadcast configuration is not unitary")
	}
	for w := 0; w < 4; w++ {
		if math.Abs(cAbs2(u.At(w, 0))-0.25) > 1e-10 {
			t.Fatalf("broadcast column power at %d = %g", w, cAbs2(u.At(w, 0)))
		}
	}
}

func TestPropertyProgramUnitary(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		u := mat.RandomUnitary(n, rng)
		m := NewMesh(n)
		m.ProgramUnitary(u)
		return mat.MaxAbsDiff(m.Matrix(), u) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPropertyRoutingDeliversAllPower(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 * (1 + rng.Intn(8))
		m := NewMesh(n)
		perm := rng.Perm(n)
		m.RoutePermutation(perm)
		for src := 0; src < n; src++ {
			in := make([]complex128, n)
			in[src] = 1
			out := forward(m.CompilePlan(), in)
			if math.Abs(cAbs2(out[perm[src]])-1) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

package photonic

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"flumen/internal/mat"
)

// randomContractive returns an n×n complex matrix with spectral norm ≤ 1.
func randomContractive(n int, rng *rand.Rand) *mat.Dense {
	a := mat.RandomDense(n, n, rng)
	norm := mat.SpectralNorm(a)
	return mat.Scale(complex(0.9/norm, 0), a)
}

// The SVD mesh of Fig. 4 — V* lattice, Σ attenuator column, U lattice —
// is what a BlockProgram realizes; these tests hold the program to the
// figure.

func TestSVDMeshStructure(t *testing.T) {
	bp, err := CompileBlock(mat.Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	// Two N(N-1)/2-MZI lattices plus N attenuators: N² devices.
	if devices := bp.plan.NumOps() + len(bp.alpha); devices != 16 {
		t.Fatalf("4-input SVD mesh has %d devices, want N²=16", devices)
	}
	if bp.Size != 4 || bp.plan.N() != 4 {
		t.Fatalf("Size %d, plan width %d", bp.Size, bp.plan.N())
	}
}

func TestSVDMeshIdentityDefault(t *testing.T) {
	bp, err := CompileBlock(mat.Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	if d := mat.MaxAbsDiff(bp.Matrix(), mat.Identity(4)); d > 1e-9 {
		t.Fatalf("identity program error %g", d)
	}
}

func TestSVDMeshProgramsContractiveMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{2, 4, 8} {
		for trial := 0; trial < 5; trial++ {
			m := randomContractive(n, rng)
			bp, err := CompileBlock(m)
			if err != nil {
				t.Fatal(err)
			}
			if d := mat.MaxAbsDiff(bp.Matrix(), m); d > 1e-8 {
				t.Fatalf("n=%d SVD mesh error %g", n, d)
			}
		}
	}
}

func TestSVDMeshProgramScaled(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := mat.RandomDense(4, 4, rng) // arbitrary norm
	bp, err := CompileBlockScaled(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bp.Scale-mat.SpectralNorm(m)) > 1e-9 {
		t.Fatalf("scale %g, want spectral norm %g", bp.Scale, mat.SpectralNorm(m))
	}
	got := mat.Scale(complex(bp.Scale, 0), bp.Matrix())
	if d := mat.MaxAbsDiff(got, m); d > 1e-8 {
		t.Fatalf("scaled program error %g", d)
	}
}

func TestSVDMeshWDMParallelMVMs(t *testing.T) {
	// p input vectors on p wavelengths share the mesh configuration: the
	// photonic matrix-matrix product M·A (Sec 3.3.1) is one ForwardBatch of
	// the program's plan.
	rng := rand.New(rand.NewSource(22))
	m := randomContractive(4, rng)
	bp, err := CompileBlock(m)
	if err != nil {
		t.Fatal(err)
	}
	a := mat.RandomDense(4, 8, rng) // 8 wavelengths
	states := make([]complex128, 0, 4*8)
	for lambda := 0; lambda < 8; lambda++ {
		states = append(states, a.Col(lambda)...)
	}
	pl, _ := bp.Plan()
	pl.ForwardBatch(states, 8)
	got := mat.New(4, 8)
	for lambda := 0; lambda < 8; lambda++ {
		got.SetCol(lambda, states[lambda*4:][:4])
	}
	if d := mat.MaxAbsDiff(got, mat.Mul(m, a)); d > 1e-8 {
		t.Fatalf("WDM parallel MVM error %g", d)
	}
}

func TestFlumenMeshConstruction(t *testing.T) {
	f := NewFlumenMesh(8)
	if f.N() != 8 {
		t.Fatalf("N() = %d", f.N())
	}
	// N(N-1)/2 + N attenuators = 28 + 8 = 36.
	if f.NumMZIs() != 36 {
		t.Fatalf("NumMZIs = %d, want 36", f.NumMZIs())
	}
}

func TestFlumenMeshRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, 2, 6, 7, 10} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFlumenMesh(%d) did not panic", n)
				}
			}()
			NewFlumenMesh(n)
		}()
	}
}

func TestFlumenMeshProgramUnitaryWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := NewFlumenMesh(8)
	u := mat.RandomUnitary(8, rng)
	f.ProgramUnitary(u)
	if d := mat.MaxAbsDiff(f.Matrix(), u); d > 1e-9 {
		t.Fatalf("whole-mesh unitary error %g", d)
	}
}

func TestFlumenMeshRoutePermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	f := NewFlumenMesh(8)
	perm := rng.Perm(8)
	f.RoutePermutation(perm)
	for src := 0; src < 8; src++ {
		in := make([]complex128, 8)
		in[src] = 1
		out := f.Forward(in)
		if math.Abs(cAbs2(out[perm[src]])-1) > 1e-10 {
			t.Fatalf("src %d delivered %g", src, cAbs2(out[perm[src]]))
		}
	}
}

func TestFlumenMeshEqualizeLoss(t *testing.T) {
	const perMZIdB = 0.27
	f := NewFlumenMesh(8)
	perm := []int{0, 1, 2, 3, 4, 5, 6, 7}
	f.RoutePermutation(perm)
	worst := f.EqualizeLoss(perMZIdB)
	if worst <= 0 {
		t.Fatalf("worst-case loss %g", worst)
	}
	// After equalization every source-destination path has identical total
	// loss: MZI count loss + attenuator deficit.
	var ref float64 = -1
	for src := 0; src < 8; src++ {
		count, _ := f.PathMZICount(src)
		in := make([]complex128, 8)
		in[src] = 1
		out := f.Forward(in)
		attenPower := cAbs2(out[perm[src]]) // attenuator column transmission
		totalDB := float64(count)*perMZIdB - 10*math.Log10(attenPower)
		if ref < 0 {
			ref = totalDB
		} else if math.Abs(totalDB-ref) > 1e-9 {
			t.Fatalf("src %d equalized loss %g dB, want %g dB", src, totalDB, ref)
		}
	}
	if math.Abs(ref-worst) > 1e-9 {
		t.Fatalf("equalized loss %g, reported worst %g", ref, worst)
	}
}

func TestFlumenPartitionHalves(t *testing.T) {
	// The paper's headline reconfiguration: an 8-input Flumen MZIM
	// partitioned evenly yields two 4-input SVD MZIMs (Fig. 5).
	rng := rand.New(rand.NewSource(25))
	f := NewFlumenMesh(8)
	top, err := f.NewPartition(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	bot, err := f.NewPartition(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	mTop := randomContractive(4, rng)
	mBot := randomContractive(4, rng)
	if err := top.Program(mTop); err != nil {
		t.Fatal(err)
	}
	if err := bot.Program(mBot); err != nil {
		t.Fatal(err)
	}
	if d := mat.MaxAbsDiff(top.Matrix(), mTop); d > 1e-8 {
		t.Fatalf("top partition error %g", d)
	}
	if d := mat.MaxAbsDiff(bot.Matrix(), mBot); d > 1e-8 {
		t.Fatalf("bottom partition error %g", d)
	}
	// No crosstalk: light in the top region stays there.
	in := make([]complex128, 8)
	in[1] = 1
	out := f.Forward(in)
	for w := 4; w < 8; w++ {
		if cAbs2(out[w]) > 1e-12 {
			t.Fatalf("partition crosstalk: wire %d power %g", w, cAbs2(out[w]))
		}
	}
}

func TestFlumenPartitionWithSimultaneousComm(t *testing.T) {
	// Fig. 5: computation in the bottom half while point-to-point
	// communication runs in the top half.
	rng := rand.New(rand.NewSource(26))
	f := NewFlumenMesh(8)
	p, err := f.NewPartition(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := randomContractive(4, rng)
	if err := p.Program(m); err != nil {
		t.Fatal(err)
	}
	perm := []int{2, 0, 3, 1}
	f.RoutePermutationRange(0, perm)
	// Communication works.
	for src := 0; src < 4; src++ {
		in := make([]complex128, 8)
		in[src] = 1
		out := f.Forward(in)
		if math.Abs(cAbs2(out[perm[src]])-1) > 1e-10 {
			t.Fatalf("comm src %d power %g at dest", src, cAbs2(out[perm[src]]))
		}
		for w := 4; w < 8; w++ {
			if cAbs2(out[w]) > 1e-12 {
				t.Fatalf("comm leaked into compute partition at wire %d", w)
			}
		}
	}
	// Compute partition still implements m.
	if d := mat.MaxAbsDiff(p.Matrix(), m); d > 1e-8 {
		t.Fatalf("partition corrupted by comm routing: error %g", d)
	}
}

func TestFlumenPartitionSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, tc := range []struct{ lo, size int }{{0, 2}, {2, 2}, {6, 2}, {2, 4}, {0, 4}, {4, 4}} {
		f := NewFlumenMesh(8)
		p, err := f.NewPartition(tc.lo, tc.size)
		if err != nil {
			t.Fatalf("NewPartition(%d,%d): %v", tc.lo, tc.size, err)
		}
		m := randomContractive(tc.size, rng)
		if err := p.Program(m); err != nil {
			t.Fatalf("Program(%d,%d): %v", tc.lo, tc.size, err)
		}
		if d := mat.MaxAbsDiff(p.Matrix(), m); d > 1e-8 {
			t.Fatalf("partition (%d,%d) error %g", tc.lo, tc.size, d)
		}
	}
}

func TestFlumenPartitionLarger16(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	f := NewFlumenMesh(16)
	p, err := f.NewPartition(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	m := randomContractive(8, rng)
	if err := p.Program(m); err != nil {
		t.Fatal(err)
	}
	if d := mat.MaxAbsDiff(p.Matrix(), m); d > 1e-8 {
		t.Fatalf("16-mesh mid partition error %g", d)
	}
}

func TestFlumenPartitionValidation(t *testing.T) {
	f := NewFlumenMesh(8)
	cases := []struct{ lo, size int }{
		{-2, 4}, // out of range
		{1, 4},  // odd lo
		{0, 3},  // odd size
		{0, 6},  // size > N/2
		{6, 4},  // runs off the end
		{0, 0},  // empty
	}
	for _, tc := range cases {
		if _, err := f.NewPartition(tc.lo, tc.size); err == nil {
			t.Errorf("NewPartition(%d,%d) accepted", tc.lo, tc.size)
		}
	}
	// Overlap detection.
	if _, err := f.NewPartition(0, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := f.NewPartition(2, 2); err == nil {
		t.Fatal("overlapping partition accepted")
	}
}

func TestFlumenPartitionRelease(t *testing.T) {
	f := NewFlumenMesh(8)
	p, err := f.NewPartition(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	p.Release()
	if _, err := f.NewPartition(2, 2); err != nil {
		t.Fatalf("partition not released: %v", err)
	}
}

func TestFlumenPartitionProgramScaled(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	f := NewFlumenMesh(8)
	p, err := f.NewPartition(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := mat.Scale(3, mat.RandomDense(4, 4, rng)) // spectral norm > 1
	if err := p.Program(m); err == nil {
		t.Fatal("Program accepted expanding matrix")
	}
	if err := p.ProgramScaled(m); err != nil {
		t.Fatal(err)
	}
	x := []complex128{1, -0.5, 0.25, 0.7}
	got := partitionMVM(p, x)
	want := mat.MulVec(m, x)
	if mat.VecMaxAbsDiff(got, want) > 1e-8 {
		t.Fatalf("scaled MVM error %g", mat.VecMaxAbsDiff(got, want))
	}
}

func TestFlumenPartitionBlockMatVec(t *testing.T) {
	// End-to-end Eq. 2/3: a 10×7 matrix through a 4-input partition.
	rng := rand.New(rand.NewSource(30))
	f := NewFlumenMesh(8)
	p, err := f.NewPartition(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := mat.RandomDense(10, 7, rng)
	x := make([]complex128, 7)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	got := mat.BlockMatVec(m, x, 4, func(blk *mat.Dense, seg []complex128) []complex128 {
		if err := p.ProgramScaled(blk); err != nil {
			t.Fatal(err)
		}
		return partitionMVM(p, seg)
	})
	want := mat.MulVec(m, x)
	if mat.VecMaxAbsDiff(got, want) > 1e-7 {
		t.Fatalf("block MVM through partition error %g", mat.VecMaxAbsDiff(got, want))
	}
}

func TestFlumenResetRestoresPassThrough(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := NewFlumenMesh(8)
	f.ProgramUnitary(mat.RandomUnitary(8, rng))
	f.Reset()
	u := f.Matrix()
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			a := cmplx.Abs(u.At(i, j))
			if i == j && math.Abs(a-1) > 1e-10 {
				t.Fatalf("reset mesh |u[%d][%d]| = %g", i, j, a)
			}
			if i != j && a > 1e-10 {
				t.Fatalf("reset mesh leaks at (%d,%d)", i, j)
			}
		}
	}
}

func TestPropertyFlumenPartitionProgram(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sizes := []int{2, 4}
		size := sizes[rng.Intn(len(sizes))]
		loMax := (8 - size) / 2
		lo := 2 * rng.Intn(loMax+1)
		fm := NewFlumenMesh(8)
		p, err := fm.NewPartition(lo, size)
		if err != nil {
			return false
		}
		m := randomContractive(size, rng)
		if err := p.Program(m); err != nil {
			return false
		}
		return mat.MaxAbsDiff(p.Matrix(), m) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

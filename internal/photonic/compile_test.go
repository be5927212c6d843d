package photonic

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"flumen/internal/mat"
)

// Bitwise-equivalence tests for the one executor: every plan — mesh,
// fabric, program, faulted program — must reproduce the
// device-by-device oracle (oracle_test.go) bit for bit, not merely within
// tolerance, because the engine's serial≡parallel guarantee is stated at
// the bit level and the plan slots underneath it.

// bitsEqualVec reports whether two complex vectors are bitwise identical,
// distinguishing -0 from +0 and comparing NaN payloads exactly.
func bitsEqualVec(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

func randVec(n int, rng *rand.Rand) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

// forward propagates one vector through pl: a batch of one.
func forward(pl *CompiledPlan, in []complex128) []complex128 {
	s := slices.Clone(in)
	pl.ForwardBatch(s, 1)
	return s
}

// programMVM is bp's matrix-vector product with the spectral scale
// restored.
func programMVM(bp *BlockProgram, x []complex128) []complex128 {
	out := forward(&bp.plan, x)
	for i := range out {
		out[i] *= complex(bp.Scale, 0)
	}
	return out
}

// partitionMVM is the partition's matrix-vector product with its spectral
// scale restored, propagated through the fabric plan with the other wires
// dark.
func partitionMVM(p *Partition, x []complex128) []complex128 {
	full := make([]complex128, p.f.n)
	copy(full[p.Lo:], x)
	out := forward(p.f.plan(), full)[p.Lo : p.Lo+p.Size]
	for i := range out {
		out[i] *= complex(p.Scale, 0)
	}
	return out
}

func TestMeshPlanBitwiseEqualsForward(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 5, 8, 12} {
		m := NewMesh(n)
		m.ProgramUnitary(mat.RandomUnitary(n, rng))
		pl := m.CompilePlan()
		for trial := 0; trial < 20; trial++ {
			in := randVec(n, rng)
			if !bitsEqualVec(forward(pl, in), oracleMesh(m, in)) {
				t.Fatalf("n=%d trial=%d: plan output differs from the oracle", n, trial)
			}
		}
	}
}

func TestMeshPlanInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := NewMesh(6)
	m.ProgramUnitary(mat.RandomUnitary(6, rng))
	in := randVec(6, rng)

	check := func(stage string) {
		t.Helper()
		if !bitsEqualVec(forward(m.CompilePlan(), in), oracleMesh(m, in)) {
			t.Fatalf("%s: cached plan went stale", stage)
		}
	}
	check("initial")
	m.SetMZI(0, 0, MZI{Theta: 0.3, Phi: 1.2})
	check("after SetMZI")
	m.SetOutputPhase(1, cmplx.Exp(complex(0, 0.7)))
	check("after SetOutputPhase")
	m.RoutePermutation(rng.Perm(6))
	check("after RoutePermutation")
	m.SetAllBar()
	check("after SetAllBar")
}

func TestFlumenPlanBitwiseEqualsInterp(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	f := NewFlumenMesh(16)
	// Program two partitions at different offsets plus comm routing on the
	// remaining wires, so the plan covers mixed compute/traffic state.
	top, err := f.NewPartition(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	bot, err := f.NewPartition(8, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := top.ProgramScaled(mat.RandomDense(4, 4, rng)); err != nil {
		t.Fatal(err)
	}
	if err := bot.ProgramScaled(mat.RandomDense(6, 6, rng)); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		in := randVec(16, rng)
		if !bitsEqualVec(f.Forward(in), oracleFabric(f, in)) {
			t.Fatalf("trial=%d: fabric plan differs from device-by-device propagation", trial)
		}
	}
}

func TestFlumenPlanInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	f := NewFlumenMesh(8)
	p, err := f.NewPartition(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := randVec(8, rng)
	check := func(stage string) {
		t.Helper()
		if !bitsEqualVec(f.Forward(in), oracleFabric(f, in)) {
			t.Fatalf("%s: cached fabric plan went stale", stage)
		}
	}
	check("initial")
	if err := p.ProgramScaled(mat.RandomDense(4, 4, rng)); err != nil {
		t.Fatal(err)
	}
	check("after ProgramScaled")
	bp, err := CompileBlockScaled(mat.RandomDense(4, 4, rng))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Apply(bp); err != nil {
		t.Fatal(err)
	}
	check("after Apply")
	f.Reset()
	check("after Reset")
	f.RoutePermutation(rng.Perm(8))
	check("after RoutePermutation")
	f.EqualizeLoss(0.1) // attenuator writes only
	check("after EqualizeLoss")
}

// TestBlockProgramPlanMatchesOracle holds the plan a compilation writes to
// the program's own slot settings and screens.
func TestBlockProgramPlanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for n := 2; n <= 16; n++ {
		bp, err := CompileBlockScaled(mat.RandomDense(n, n, rng))
		if err != nil {
			t.Fatal(err)
		}
		pl, compiledNow := bp.Plan()
		if compiledNow || pl != &bp.plan || pl.NumOps() != n*(n-1) {
			t.Fatalf("n=%d: Plan() = %d ops, compiledNow %v; want the program's own %d-op plan", n, pl.NumOps(), compiledNow, n*(n-1))
		}
		for trial := 0; trial < 10; trial++ {
			in := randVec(n, rng)
			if !bitsEqualVec(forward(pl, in), oracleProgram(bp, in)) {
				t.Fatalf("n=%d trial=%d: program plan differs from the oracle", n, trial)
			}
		}
	}
}

// TestCorruptedPlanMatchesOracle holds a faulted plan — drift, stuck and
// dead devices, corrections from a recalibration — to the oracle walking
// the program's slots through the same device state, and checks the
// program's own plan is left as it was.
func TestCorruptedPlanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for n := 2; n <= 16; n++ {
		bp, err := CompileBlockScaled(mat.RandomDense(n, n, rng))
		if err != nil {
			t.Fatal(err)
		}
		clean := bp.Matrix()
		fi := NewFaultInjector(n, FaultConfig{DriftSigma: 0.05, StuckFrac: 0.15, DeadFrac: 0.15, Seed: int64(n)})
		for round := 0; round < 2; round++ {
			fi.Step(3)
			pl := fi.Corrupt(bp)
			k := planTile + 3
			states := make([]complex128, k*n)
			want := make([]complex128, k*n)
			for v := 0; v < k; v++ {
				in := randVec(n, rng)
				copy(states[v*n:], in)
				copy(want[v*n:], oracleCorrupted(fi, bp, in))
			}
			pl.ForwardBatch(states, k)
			if !bitsEqualVec(states, want) {
				t.Fatalf("n=%d round %d: faulted plan differs from the oracle", n, round)
			}
			if n <= 8 {
				fi.Recalibrate(bp, 1) // the second round runs with corrections
			}
		}
		if d := mat.MaxAbsDiff(bp.Matrix(), clean); d != 0 {
			t.Fatalf("n=%d: Corrupt changed the program's own plan by %g", n, d)
		}
	}
}

// TestForwardBatchBitwiseEqualsForward pins the batch property: a batch
// of k right-hand sides propagates to bitwise the same outputs as k
// individual propagations, across tile-boundary batch sizes.
func TestForwardBatchBitwiseEqualsForward(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	bp, err := CompileBlockScaled(mat.RandomDense(8, 8, rng))
	if err != nil {
		t.Fatal(err)
	}
	pl, _ := bp.Plan()
	n := pl.N()
	for _, k := range []int{1, 2, planTile - 1, planTile, planTile + 1, 3 * planTile} {
		states := make([]complex128, k*n)
		want := make([]complex128, k*n)
		for v := 0; v < k; v++ {
			in := randVec(n, rng)
			copy(states[v*n:], in)
			copy(want[v*n:], oracleProgram(bp, in))
		}
		pl.ForwardBatch(states, k)
		if !bitsEqualVec(states, want) {
			t.Fatalf("k=%d: batched propagation differs from per-vector", k)
		}
	}
}

// TestForwardBatchNonFiniteIsolation checks that NaN, Inf and -0 inputs
// propagate identically batched and unbatched, and that a poisoned vector
// cannot contaminate its batch neighbours.
func TestForwardBatchNonFiniteIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	bp, err := CompileBlockScaled(mat.RandomDense(8, 8, rng))
	if err != nil {
		t.Fatal(err)
	}
	pl, _ := bp.Plan()
	n := pl.N()
	k := planTile + 4
	vecs := make([][]complex128, k)
	for v := range vecs {
		vecs[v] = randVec(n, rng)
	}
	nan := math.NaN()
	vecs[0][0] = complex(nan, nan)                            // NaN mid-tile neighbourhood
	vecs[1][3] = complex(math.Inf(1), math.Inf(-1))           // ±Inf
	vecs[2][n-1] = complex(math.Copysign(0, -1), 0)           // -0
	vecs[planTile][2] = complex(nan, 1)                       // NaN in second tile
	vecs[k-1] = make([]complex128, n)                         // all-zero vector
	vecs[k-2][0] = complex(math.MaxFloat64, -math.MaxFloat64) // overflow-prone

	states := make([]complex128, k*n)
	want := make([]complex128, k*n)
	for v := 0; v < k; v++ {
		copy(states[v*n:], vecs[v])
		copy(want[v*n:], oracleProgram(bp, vecs[v]))
	}
	pl.ForwardBatch(states, k)
	for v := 0; v < k; v++ {
		if !bitsEqualVec(states[v*n:(v+1)*n], want[v*n:(v+1)*n]) {
			t.Fatalf("vector %d: batched non-finite propagation differs from per-vector", v)
		}
	}
	// Clean neighbours of the NaN vector must be exactly NaN-free if their
	// per-vector reference is (isolation, not just equality).
	for i := 3 * n; i < 4*n; i++ {
		if cmplx.IsNaN(want[i]) {
			t.Fatalf("reference vector 3 unexpectedly contains NaN")
		}
	}
}

// TestPartitionPlanAcrossOffsets programs the same block program into
// partitions at different offsets and checks the compiled fabric plans
// agree with the oracle at both (the parasitic-phase absorption must
// survive compilation unchanged).
func TestPartitionPlanAcrossOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	bp, err := CompileBlockScaled(mat.RandomDense(4, 4, rng))
	if err != nil {
		t.Fatal(err)
	}
	for _, lo := range []int{0, 2, 4, 12} {
		f := NewFlumenMesh(16)
		p, err := f.NewPartition(lo, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Apply(bp); err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			in := randVec(16, rng)
			if !bitsEqualVec(f.Forward(in), oracleFabric(f, in)) {
				t.Fatalf("lo=%d trial=%d: plan differs from the oracle", lo, trial)
			}
		}
	}
}

// TestScaledProgramPlanZeroBlock covers the Scale-0 artifact: an all-zero
// block's plan must also be bitwise-equal to the oracle.
func TestScaledProgramPlanZeroBlock(t *testing.T) {
	bp, err := CompileBlockScaled(mat.New(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if bp.Scale != 0 {
		t.Fatalf("zero block Scale = %g, want 0", bp.Scale)
	}
	pl, _ := bp.Plan()
	in := randVec(4, rand.New(rand.NewSource(103)))
	if !bitsEqualVec(forward(pl, in), oracleProgram(bp, in)) {
		t.Fatal("zero-block plan differs from the oracle")
	}
}

// TestMatrixIntoMatchesMatrix checks the one Matrix: the identity slab
// through ForwardBatch gives, column by column, the oracle's response to
// each basis vector, overwrites whatever the destination held, and a
// partition's MatrixInto reads the same bits as its block of the fabric's.
func TestMatrixIntoMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	m := NewMesh(6)
	m.ProgramUnitary(mat.RandomUnitary(6, rng))
	f := NewFlumenMesh(8)
	p, err := f.NewPartition(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ProgramScaled(mat.RandomDense(4, 4, rng)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		pl     *CompiledPlan
		oracle func([]complex128) []complex128
	}{
		{"mesh", m.CompilePlan(), func(in []complex128) []complex128 { return oracleMesh(m, in) }},
		{"fabric", f.plan(), func(in []complex128) []complex128 { return oracleFabric(f, in) }},
	} {
		n := tc.pl.N()
		got := tc.pl.MatrixInto(mat.RandomDense(n, n, rng))
		for j := 0; j < n; j++ {
			e := make([]complex128, n)
			e[j] = 1
			if !bitsEqualVec(got.Col(j), tc.oracle(e)) {
				t.Fatalf("%s: MatrixInto column %d differs from the oracle", tc.name, j)
			}
		}
		if d := mat.MaxAbsDiff(got, tc.pl.Matrix()); d != 0 {
			t.Fatalf("%s: MatrixInto differs from Matrix by %g", tc.name, d)
		}
	}
	fm := f.Matrix()
	pm := p.MatrixInto(mat.RandomDense(4, 4, rng))
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if !bitsEqualVec([]complex128{pm.At(i, j)}, []complex128{fm.At(2+i, 2+j)}) {
				t.Fatalf("Partition MatrixInto (%d,%d) differs from the fabric's block", i, j)
			}
		}
	}
}

// TestTransferMatchesMatrix pins the matrix every engine work item
// multiplies by: for sizes 2–16, a program's compiled Transfer and the real
// parts of the matrix a faulted item measures with TransferInto on the
// faulted plan (into a dirty buffer) equal real(Matrix) column by column,
// bit for bit.
func TestTransferMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for n := 2; n <= 16; n++ {
		bp, err := CompileBlockScaled(mat.RandomReal(n, n, rng))
		if err != nil {
			t.Fatal(err)
		}
		fi := NewFaultInjector(n, FaultConfig{DriftSigma: 0.05, StuckFrac: 0.15, DeadFrac: 0.15, Seed: int64(n)})
		fi.Step(3)
		var faulted []float64
		for _, v := range fi.Corrupt(bp).TransferInto(randVec(n*n+1, rng)) {
			faulted = append(faulted, real(v))
		}
		for _, tc := range []struct {
			name string
			got  []float64
			want *mat.Dense
		}{
			{"program", bp.Transfer(), bp.Matrix()},
			{"faulted", faulted, fi.Corrupt(bp).Matrix()},
		} {
			if len(tc.got) != n*n {
				t.Fatalf("n=%d %s: transfer holds %d entries, want %d", n, tc.name, len(tc.got), n*n)
			}
			for j := 0; j < n; j++ {
				for i, w := range tc.want.Col(j) {
					if math.Float64bits(tc.got[j*n+i]) != math.Float64bits(real(w)) {
						t.Fatalf("n=%d %s: transfer (%d,%d) = %v, real(Matrix) %v", n, tc.name, i, j, tc.got[j*n+i], real(w))
					}
				}
			}
		}
	}
}

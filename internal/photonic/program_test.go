package photonic

import (
	"math"
	"math/rand"
	"testing"

	"flumen/internal/mat"
)

// TestCompileBlockMatchesPartitionAcrossOffsets verifies the compiled
// artifact is partition-independent: applying one BlockProgram to
// partitions at different wire offsets realizes the same matrix, and the
// program's own plan agrees with both.
func TestCompileBlockMatchesPartitionAcrossOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := mat.RandomDense(8, 8, rng)
	m = mat.Scale(complex(0.9/mat.SpectralNorm(m), 0), m)
	bp, err := CompileBlock(m)
	if err != nil {
		t.Fatal(err)
	}
	if bp.Scale != 1 {
		t.Fatalf("CompileBlock Scale = %v, want 1", bp.Scale)
	}
	if d := mat.MaxAbsDiff(bp.Matrix(), m); d > 1e-9 {
		t.Fatalf("program lattice differs from compiled matrix by %g", d)
	}

	f := NewFlumenMesh(16)
	for _, lo := range []int{0, 8} {
		p, err := f.NewPartition(lo, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Apply(bp); err != nil {
			t.Fatal(err)
		}
		if d := mat.MaxAbsDiff(p.Matrix(), m); d > 1e-9 {
			t.Fatalf("partition at lo=%d differs from program by %g", lo, d)
		}
		p.Release()
	}
}

// TestCompileBlockScaledRecoversMatrix checks the spectral pre-scaling
// round trip: Scale·plan(x) ≈ m·x for a non-contractive matrix.
func TestCompileBlockScaledRecoversMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := mat.Scale(3, mat.RandomDense(6, 6, rng))
	bp, err := CompileBlockScaled(m)
	if err != nil {
		t.Fatal(err)
	}
	if bp.Scale <= 1 {
		t.Fatalf("Scale = %v, want > 1 for an expanded matrix", bp.Scale)
	}
	x := make([]complex128, 6)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	got := programMVM(bp, x)
	want := mat.MulVec(m, x)
	for i := range want {
		if d := got[i] - want[i]; real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
			t.Fatalf("output %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestCompileBlockScaledZero compiles the all-zero block to the zero map
// with Scale 0.
func TestCompileBlockScaledZero(t *testing.T) {
	bp, err := CompileBlockScaled(mat.New(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if bp.Scale != 0 {
		t.Fatalf("Scale = %v, want 0", bp.Scale)
	}
	out := programMVM(bp, []complex128{1, 1, 1, 1})
	for i, v := range out {
		if v != 0 {
			t.Fatalf("zero-block output %d = %v, want 0", i, v)
		}
	}
}

// TestCompileBlockScaledOutOfBand compiles blocks whose entries' squares
// overflow or underflow float64: the power-of-two pre-scale must be folded
// back into Scale, and what cannot be represented must be an error, never a
// silent zero map.
func TestCompileBlockScaledOutOfBand(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, exp := range []int{-1060, -600, -401, 401, 600, 1015} {
		m := mat.New(6, 6)
		for r := 0; r < 6; r++ {
			for c := 0; c < 6; c++ {
				m.Set(r, c, complex(math.Ldexp(2*rng.Float64()-1, exp), 0))
			}
		}
		bp, err := CompileBlockScaled(m)
		if err != nil {
			t.Fatalf("2^%d: %v", exp, err)
		}
		if bp.Scale <= 0 || math.IsInf(bp.Scale, 0) {
			t.Fatalf("2^%d: Scale = %g", exp, bp.Scale)
		}
		tol := 1e-9 * bp.Scale
		if exp < -1000 {
			tol = math.Ldexp(1, -1073) // the entries are subnormal: a few ulps of 2^-1074
		}
		if d := mat.MaxAbsDiff(mat.Scale(complex(bp.Scale, 0), bp.Matrix()), m); !(d <= tol) {
			t.Fatalf("2^%d: Scale·Matrix() off by %g (Scale %g)", exp, d, bp.Scale)
		}
	}
	for _, bad := range []complex128{complex(math.NaN(), 0), complex(0, math.Inf(1)), complex(math.Inf(-1), 0)} {
		m := mat.RandomReal(4, 4, rng)
		m.Set(2, 1, bad)
		if _, err := CompileBlockScaled(m); err == nil {
			t.Fatalf("CompileBlockScaled accepted an entry of %v", bad)
		}
	}
	// Every entry at the top of the range: ‖m‖₂ = 4·MaxFloat64 has no float64.
	m := mat.New(4, 4)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			m.Set(r, c, complex(math.MaxFloat64, 0))
		}
	}
	if _, err := CompileBlockScaled(m); err == nil {
		t.Fatal("CompileBlockScaled accepted a block whose spectral norm overflows")
	}
}

// TestCompileBlockRejectsExpandingMatrix checks CompileBlock refuses
// singular values above 1 (the attenuator column cannot amplify).
func TestCompileBlockRejectsExpandingMatrix(t *testing.T) {
	m := mat.New(4, 4)
	for i := 0; i < 4; i++ {
		m.Set(i, i, 2)
	}
	if _, err := CompileBlock(m); err == nil {
		t.Fatal("CompileBlock accepted a matrix with σ > 1")
	}
	if _, err := CompileBlock(mat.New(4, 6)); err == nil {
		t.Fatal("CompileBlock accepted a non-square matrix")
	}
}

// TestBlockProgramDeterministicCompile checks two independent compiles of
// the same matrix yield bitwise-identical propagation — the property that
// makes cache hits indistinguishable from recompiles.
func TestBlockProgramDeterministicCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := mat.RandomDense(8, 8, rng)
	bp1, err := CompileBlockScaled(m)
	if err != nil {
		t.Fatal(err)
	}
	bp2, err := CompileBlockScaled(m)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, 8)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	o1, o2 := programMVM(bp1, x), programMVM(bp2, x)
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("independent compiles diverge at %d: %v vs %v", i, o1[i], o2[i])
		}
	}
}

// TestCompileBlockAllocations holds a compilation to what the program
// keeps, in five objects: the program, Sigma, both lattices' slots, the
// plan's wires, and one array for both screens and the plan's
// coefficients. The plan is born with the program and costs no allocation
// of its own. The test holds one compiler itself, as a pooled one would be
// reused (the race detector's sync.Pool drops a share of what is put back).
func TestCompileBlockAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	blocks := make([]*mat.Dense, 8)
	for i := range blocks {
		blocks[i] = mat.RandomReal(8, 8, rng)
	}
	cp := new(compiler)
	compile := func(i int) {
		if _, err := cp.compileScaled(blocks[i%len(blocks)]); err != nil {
			t.Fatal(err)
		}
	}
	compile(0) // grow the compiler's scratch
	next := 0
	if allocs := testing.AllocsPerRun(20, func() { compile(next); next++ }); allocs > 5 {
		t.Errorf("CompileBlockScaled on an 8×8 block: %.1f allocations, budget 5", allocs)
	}
}

// BenchmarkCompileBlockScaled is the cold path's unit of work: one real 8×8
// block (the serving block size) through the spectral norm, the SVD, two
// Clements decompositions and slot packing.
func BenchmarkCompileBlockScaled(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	blocks := make([]*mat.Dense, 64)
	for i := range blocks {
		blocks[i] = mat.RandomReal(8, 8, rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompileBlockScaled(blocks[i%len(blocks)]); err != nil {
			b.Fatal(err)
		}
	}
}

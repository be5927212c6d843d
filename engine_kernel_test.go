package flumen

import (
	"math"
	"math/rand"
	"testing"
)

// Engine-level tests of the compiled plans every work item runs: non-finite
// right-hand sides stay in their own column, serial ≡ parallel, and plan
// accounting follows the weight-program cache. The plans' bit-for-bit
// equivalence with the device-by-device oracle is pinned in
// internal/photonic.

func matsBitsEqual(t *testing.T, a, b [][]float64, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: row count %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("%s: row %d length %d vs %d", label, i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				t.Fatalf("%s: (%d,%d) = %v vs %v (bits differ)", label, i, j, a[i][j], b[i][j])
			}
		}
	}
}

// TestCompiledKernelsNonFiniteInputs checks right-hand-side isolation end
// to end: NaN and ±Inf in some columns of X, plus an all-zero and an
// all-NaN column (both dark: they ride through the batch and are never
// detected), leave every other column — one of them holding a -0 — with
// exactly the bits a clean X gives it.
func TestCompiledKernelsNonFiniteInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randMatrix(rng, 16, 16)
	clean := randMatrix(rng, 16, 8)
	clean[2][2] = math.Copysign(0, -1)
	x := make([][]float64, len(clean))
	for i := range clean {
		x[i] = append([]float64(nil), clean[i]...)
		x[i][3] = 0          // column 3: dark
		x[i][4] = math.NaN() // column 4: all-NaN, maxAbs sees 0, also dark
	}
	x[3][0] = math.NaN()
	x[0][1] = math.Inf(1)
	x[9][1] = math.Inf(-1)

	var want, got [][]float64
	for _, run := range []struct {
		in  [][]float64
		out *[][]float64
	}{{clean, &want}, {x, &got}} {
		out, err := newEngineAccel(t, 32, 8).MatMul(m, run.in)
		if err != nil {
			t.Fatal(err)
		}
		*run.out = out
	}
	column := func(a [][]float64, j int) [][]float64 {
		col := make([][]float64, len(a))
		for i := range a {
			col[i] = []float64{a[i][j]}
		}
		return col
	}
	for _, j := range []int{2, 5, 6, 7} {
		matsBitsEqual(t, column(got, j), column(want, j), "clean column beside non-finite ones")
	}
	for i := range got {
		if got[i][3] != 0 || got[i][4] != 0 {
			t.Fatalf("row %d: dark columns read %v, %v; want 0", i, got[i][3], got[i][4])
		}
	}
}

func TestCompiledKernelsSerialParallelBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := newEngineAccel(t, 32, 8)
	m := randMatrix(rng, 24, 24)
	x := randMatrix(rng, 24, 16)
	a.SetWorkers(1)
	serial, err := a.MatMul(m, x)
	if err != nil {
		t.Fatal(err)
	}
	a.SetWorkers(a.NumPartitions())
	parallel, err := a.MatMul(m, x)
	if err != nil {
		t.Fatal(err)
	}
	matsBitsEqual(t, serial, parallel, "serial vs parallel")
}

// TestKernelStatsPlanReuseAndEviction: a plan is compiled with its program
// and evicted with it, so Stats().Kernel is the cache's accounting — a cold
// call compiles one plan per block, a warm call reuses them all, and
// nothing ever falls back.
func TestKernelStatsPlanReuseAndEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := newEngineAccel(t, 32, 8)
	m := randMatrix(rng, 16, 16)
	x := randMatrix(rng, 16, 4)
	if _, err := a.MatMul(m, x); err != nil {
		t.Fatal(err)
	}
	first := a.Stats()
	if first.Kernel.PlanCompiles != 4 || first.Kernel.PlanCompiles != first.Cache.Misses {
		t.Fatalf("cold 16×16 call: %+v, cache %+v; want 4 plan compiles, one per cache miss", first.Kernel, first.Cache)
	}
	if _, err := a.MatMul(m, x); err != nil {
		t.Fatal(err)
	}
	second := a.Stats()
	if second.Kernel.PlanCompiles != first.Kernel.PlanCompiles {
		t.Fatalf("warm weights recompiled plans: %d → %d", first.Kernel.PlanCompiles, second.Kernel.PlanCompiles)
	}
	if second.Kernel.PlanReuses != first.Kernel.PlanReuses+4 || second.Kernel.PlanReuses != second.Cache.Hits {
		t.Fatalf("warm call: %+v, cache %+v; want 4 more plan reuses, one per cache hit", second.Kernel, second.Cache)
	}
	if second.Kernel.Fallbacks != 0 {
		t.Fatalf("Fallbacks = %d, want 0", second.Kernel.Fallbacks)
	}

	// A capacity-1 cache thrashes: each distinct block evicts the previous
	// program together with its plan.
	a.SetProgramCacheSize(1)
	if _, err := a.MatMul(m, x); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Cache.Evictions == 0 || st.Kernel.PlanCompiles != st.Cache.Misses {
		t.Fatalf("thrashing cache: %+v, kernel %+v", st.Cache, st.Kernel)
	}
}

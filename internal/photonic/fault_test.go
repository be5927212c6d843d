package photonic

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"flumen/internal/mat"
)

func compileTestProgram(t *testing.T, n int, seed int64) *BlockProgram {
	t.Helper()
	bp, err := CompileBlockScaled(mat.RandomReal(n, n, rand.New(rand.NewSource(seed))))
	if err != nil {
		t.Fatalf("CompileBlockScaled: %v", err)
	}
	return bp
}

func TestFaultInjectorNoFaultsIsIdentity(t *testing.T) {
	bp := compileTestProgram(t, 8, 1)
	fi := NewFaultInjector(8, FaultConfig{Seed: 42})
	fi.Step(100)
	if d := mat.MaxAbsDiff(fi.Corrupt(bp).Matrix(), bp.Matrix()); d != 0 {
		t.Fatalf("fault-free Corrupt changed the lattice by %g", d)
	}
	if e := fi.MatrixError(bp); e != 0 {
		t.Fatalf("fault-free MatrixError = %g, want 0", e)
	}
}

func TestFaultInjectorCorruptDoesNotMutateProgram(t *testing.T) {
	bp := compileTestProgram(t, 8, 2)
	before := bp.Matrix()
	fi := NewFaultInjector(8, FaultConfig{DriftSigma: 0.1, Seed: 7})
	fi.Step(50)
	if e := fi.MatrixError(bp); e == 0 {
		t.Fatal("drifted injector reported zero error")
	}
	if d := mat.MaxAbsDiff(bp.Matrix(), before); d != 0 {
		t.Fatalf("Corrupt mutated the shared program by %g", d)
	}
}

func TestFaultInjectorDriftGrows(t *testing.T) {
	bp := compileTestProgram(t, 8, 3)
	fi := NewFaultInjector(8, FaultConfig{DriftSigma: 0.005, Seed: 11})
	fi.Step(10)
	early := fi.MatrixError(bp)
	fi.Step(2000)
	late := fi.MatrixError(bp)
	if late <= early {
		t.Fatalf("drift error did not grow: early %g, late %g", early, late)
	}
	if fi.Steps() != 2010 {
		t.Fatalf("Steps = %d, want 2010", fi.Steps())
	}
}

func TestFaultInjectorStuckAndDead(t *testing.T) {
	bp := compileTestProgram(t, 8, 4)
	fi := NewFaultInjector(8, FaultConfig{StuckFrac: 0.2, DeadFrac: 0.2, Seed: 5})
	stuck, dead := fi.Counts()
	if stuck == 0 || dead == 0 {
		t.Fatalf("expected both stuck and dead devices at 20%% rates, got %d/%d", stuck, dead)
	}
	// Static failures corrupt the lattice even with zero drift and no steps.
	if e := fi.MatrixError(bp); e == 0 {
		t.Fatal("stuck/dead devices produced zero matrix error")
	}
}

func TestFaultInjectorDeterministic(t *testing.T) {
	bp := compileTestProgram(t, 8, 6)
	cfg := FaultConfig{DriftSigma: 0.02, StuckFrac: 0.05, Seed: 99}
	a, b := NewFaultInjector(8, cfg), NewFaultInjector(8, cfg)
	a.Step(100)
	b.Step(100)
	if d := mat.MaxAbsDiff(a.Corrupt(bp).Matrix(), b.Corrupt(bp).Matrix()); d != 0 {
		t.Fatalf("same-seed injectors diverged by %g", d)
	}
}

func TestFaultInjectorRecalibrateNullsDrift(t *testing.T) {
	bp := compileTestProgram(t, 8, 7)
	fi := NewFaultInjector(8, FaultConfig{DriftSigma: 0.01, Seed: 13})
	fi.Step(60)
	before := fi.MatrixError(bp)
	if before == 0 {
		t.Fatal("no drift accumulated")
	}
	// Coordinate descent on coupled phases converges geometrically, not in
	// one shot; at quarantine-level drift a few sweeps recover most of it.
	res := fi.Recalibrate(bp, 8)
	after := fi.MatrixError(bp)
	if after > before/4 || after > 0.02 {
		t.Fatalf("recalibration left %g of %g pre-recal error", after, before)
	}
	if res > 0.1 {
		t.Fatalf("residual Frobenius error %g after recalibrating pure drift", res)
	}
	// Drift keeps accumulating on top of the corrections afterwards.
	fi.Step(500)
	if e := fi.MatrixError(bp); e <= after {
		t.Fatalf("post-recal drift did not accumulate: %g <= %g", e, after)
	}
}

func TestFaultInjectorRecalibrateCompensatesDead(t *testing.T) {
	bp := compileTestProgram(t, 8, 8)
	fi := NewFaultInjector(8, FaultConfig{DeadFrac: 0.04, Seed: 21})
	if _, dead := fi.Counts(); dead == 0 {
		t.Skip("seed drew no dead devices")
	}
	before := fi.MatrixError(bp)
	fi.Recalibrate(bp, 3)
	after := fi.MatrixError(bp)
	if after > before {
		t.Fatalf("neighbour compensation made things worse: %g > %g", after, before)
	}
}

func TestFaultInjectorSizeMismatchPanics(t *testing.T) {
	bp := compileTestProgram(t, 8, 9)
	fi := NewFaultInjector(4, FaultConfig{})
	defer func() {
		if recover() == nil {
			t.Fatal("Corrupt with mismatched size did not panic")
		}
	}()
	fi.Corrupt(bp)
}

// TestDriftDegradesGracefully: small phase errors cause proportionally
// small matrix errors, the robustness Sec 6 credits MZI meshes with. Each
// σ is one drift step on a programmed 8×8 unitary, worst of five seeds.
func TestDriftDegradesGracefully(t *testing.T) {
	bp, err := CompileBlock(mat.RandomUnitary(8, rand.New(rand.NewSource(43))))
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	for _, sigma := range []float64{0.001, 0.01, 0.1} {
		var worst float64
		for seed := int64(1); seed <= 5; seed++ {
			fi := NewFaultInjector(8, FaultConfig{DriftSigma: sigma, Seed: seed})
			fi.Step(1)
			worst = max(worst, fi.MatrixError(bp))
		}
		if worst <= prev {
			t.Fatalf("error not increasing with sigma: %g at σ=%g vs %g before", worst, sigma, prev)
		}
		if sigma <= 0.01 && worst > 40*sigma {
			t.Fatalf("σ=%g produced disproportionate error %g", sigma, worst)
		}
		prev = worst
	}
}

// TestFaultedLatticeStaysUnitary: drift, stuck and dead devices change the
// transformation but never create gain, so a unitary program's faulted
// lattice stays unitary (MZIs are lossless in the E-field model; loss lives
// in internal/optics).
func TestFaultedLatticeStaysUnitary(t *testing.T) {
	bp, err := CompileBlock(mat.RandomUnitary(6, rand.New(rand.NewSource(44))))
	if err != nil {
		t.Fatal(err)
	}
	fi := NewFaultInjector(6, FaultConfig{DriftSigma: 0.2, StuckFrac: 0.1, DeadFrac: 0.1, Seed: 44})
	fi.Step(1)
	if stuck, dead := fi.Counts(); stuck == 0 || dead == 0 {
		t.Fatalf("%d stuck and %d dead devices; want some of each", stuck, dead)
	}
	if !fi.Corrupt(bp).Matrix().IsUnitary(1e-9) {
		t.Fatal("faulted lattice lost unitarity")
	}
}

// TestRecalibrateOnIdealHardwareIsNearNoOp: calibrating a fault-free
// lattice leaves it exact, and the error Recalibrate reports is the one an
// independent measurement reads.
func TestRecalibrateOnIdealHardwareIsNearNoOp(t *testing.T) {
	bp := compileTestProgram(t, 4, 55)
	fi := NewFaultInjector(4, FaultConfig{Seed: 55})
	res := fi.Recalibrate(bp, 2)
	if res > 1e-6 {
		t.Fatalf("recalibration worsened a perfect lattice: %g", res)
	}
	got, want := fi.Corrupt(bp).Matrix(), bp.Matrix()
	var sq float64
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			d := got.At(i, j) - want.At(i, j)
			sq += real(d)*real(d) + imag(d)*imag(d)
		}
	}
	if meas := math.Sqrt(sq); math.Abs(meas-res) > 1e-9 {
		t.Fatalf("reported error %g vs measured %g", res, meas)
	}
}

// TestRecalibrateAllocations holds one Recalibrate pass at N = 16 to its
// setup: the target matrix, the faulted plan and its coefficients, and one
// measurement slab. Each of the pass's ≈ 1 900 probes once allocated an
// N×N difference and a state slab (5 770 allocations, 15.9 MB a pass).
func TestRecalibrateAllocations(t *testing.T) {
	bp := compileTestProgram(t, 16, 11)
	fi := NewFaultInjector(16, FaultConfig{DriftSigma: 0.05, Seed: 13})
	fi.Step(5)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(1, func() { fi.Recalibrate(bp, 1) })
	runtime.ReadMemStats(&after)
	if allocs > 8 {
		t.Errorf("one Recalibrate pass at N = 16: %.0f allocations, budget 8", allocs)
	}
	// AllocsPerRun makes one warm-up pass.
	if kb := float64(after.TotalAlloc-before.TotalAlloc) / 2 / 1024; kb > 64 {
		t.Errorf("one Recalibrate pass at N = 16: %.0f KB allocated, budget 64 KB", kb)
	}
}

// Counts reports the number of stuck and dead devices across both
// lattices.
func (fi *FaultInjector) Counts() (stuck, dead int) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	for _, lattice := range [2][]deviceFault{fi.v, fi.u} {
		for _, d := range lattice {
			if d.stuck {
				stuck++
			}
			if d.dead {
				dead++
			}
		}
	}
	return stuck, dead
}

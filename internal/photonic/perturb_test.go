package photonic

import (
	"math/rand"
	"testing"

	"flumen/internal/mat"
)

func TestPerturbPhasesDegradesGracefully(t *testing.T) {
	// Small phase errors cause proportionally small matrix errors — the
	// robustness property the paper credits MZI meshes with (Sec 6).
	rng := rand.New(rand.NewSource(43))
	u := mat.RandomUnitary(8, rng)
	var prev float64
	for _, sigma := range []float64{0.001, 0.01, 0.1} {
		var worst float64
		for trial := 0; trial < 5; trial++ {
			m := NewMesh(8)
			m.ProgramUnitary(u)
			m.PerturbPhases(sigma, rng)
			if d := mat.MaxAbsDiff(m.Matrix(), u); d > worst {
				worst = d
			}
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

func TestPerturbPhasesPreservesUnitarity(t *testing.T) {
	// Phase errors change the transformation but never create gain: the
	// perturbed mesh stays unitary (MZIs are lossless in the E-field
	// model; loss lives in internal/optics).
	rng := rand.New(rand.NewSource(44))
	m := NewMesh(6)
	m.ProgramUnitary(mat.RandomUnitary(6, rng))
	m.PerturbPhases(0.2, rng)
	if !m.Matrix().IsUnitary(1e-9) {
		t.Fatal("perturbed mesh lost unitarity")
	}
}

func TestPerturbFlumenPartitionAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	f := NewFlumenMesh(8)
	p, err := f.NewPartition(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := randomContractive(4, rng)
	if err := p.Program(m); err != nil {
		t.Fatal(err)
	}
	f.PerturbPhases(0.005, rng)
	// 8-bit equivalent precision tolerates ~0.5% phase noise.
	if d := mat.MaxAbsDiff(p.Matrix(), m); d > 0.1 {
		t.Fatalf("partition error %g under mild phase noise", d)
	}
}

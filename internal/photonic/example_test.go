package photonic_test

import (
	"fmt"
	"math/rand"

	"flumen/internal/mat"
	"flumen/internal/photonic"
)

// ExampleFaultInjector measures how thermal phase drift degrades a
// programmed 8×8 partition (Sec 6): the worst matrix error over eight
// drifted lattices at each σ, and the ADC resolution that error matches.
// Sub-1 % phase control keeps the fabric near 8-bit equivalent accuracy.
func ExampleFaultInjector() {
	rng := rand.New(rand.NewSource(7))
	bp, err := photonic.CompileBlock(mat.RandomUnitary(8, rng))
	if err != nil {
		panic(err)
	}
	for _, sigma := range []float64{0.0005, 0.001, 0.005, 0.01, 0.05} {
		var worst float64
		for trial := int64(1); trial <= 8; trial++ {
			fi := photonic.NewFaultInjector(8, photonic.FaultConfig{DriftSigma: sigma, Seed: trial})
			fi.Step(1)
			worst = max(worst, fi.MatrixError(bp))
		}
		// Error ε on unit-scale signals ≈ an ADC with step 2ε.
		bits := 0
		for s := 1.0; s/2 > worst && bits < 16; bits++ {
			s /= 2
		}
		fmt.Printf("σ %-6g error %.4f ≈ %d-bit\n", sigma, worst, bits)
	}
	// Output:
	// σ 0.0005 error 0.0025 ≈ 8-bit
	// σ 0.001  error 0.0051 ≈ 7-bit
	// σ 0.005  error 0.0254 ≈ 5-bit
	// σ 0.01   error 0.0507 ≈ 4-bit
	// σ 0.05   error 0.2501 ≈ 1-bit
}

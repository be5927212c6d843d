package flumen_test

import (
	"fmt"
	"log"

	"flumen"
)

// ExampleAccelerator_MatVec multiplies a matrix by a vector on the
// simulated photonic fabric at 8-bit equivalent precision.
func ExampleAccelerator_MatVec() {
	acc, err := flumen.NewAccelerator(8, 4)
	if err != nil {
		log.Fatal(err)
	}
	// A 4×4 rotation-like matrix and a unit vector.
	m := [][]float64{
		{0, -1, 0, 0},
		{1, 0, 0, 0},
		{0, 0, 1, 0},
		{0, 0, 0, 1},
	}
	y, err := acc.MatVec(m, []float64{1, 0, 0, 0})
	if err != nil {
		log.Fatal(err)
	}
	// Results carry 8-bit analog quantization error (≈1%), so print at
	// one decimal.
	fmt.Printf("%.1f %.1f %.1f %.1f\n", y[0], y[1], y[2], y[3])
	// Output: 0.0 1.0 0.0 0.0
}

// ExampleTopologies lists the five evaluated interconnects.
func ExampleTopologies() {
	for _, t := range flumen.Topologies() {
		fmt.Println(t)
	}
	// Output:
	// Ring
	// Mesh
	// OptBus
	// Flumen-I
	// Flumen-A
}

// ExampleBenchmarks lists the Sec 4.2 applications.
func ExampleBenchmarks() {
	for _, b := range flumen.Benchmarks() {
		fmt.Println(b)
	}
	// Output:
	// ImageBlur
	// VGG16FC
	// ResNet50Conv3
	// JPEG
	// 3DRotation
}

// ExampleEnergyBreakdown_TotalPJ sums a Fig. 13-style component split.
func ExampleEnergyBreakdown_TotalPJ() {
	e := flumen.EnergyBreakdown{CorePJ: 100, DRAMPJ: 50, NoPPJ: 10}
	fmt.Println(e.TotalPJ())
	// Output: 160
}

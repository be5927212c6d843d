package flumen_test

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	"flumen"
)

// ExampleAccelerator_MatVecCtx multiplies a matrix by a vector on the
// simulated photonic fabric at 8-bit equivalent precision.
func ExampleAccelerator_MatVecCtx() {
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
	y, err := acc.MatVecCtx(context.Background(), m, []float64{1, 0, 0, 0})
	if err != nil {
		log.Fatal(err)
	}
	// Results carry 8-bit analog quantization error (≈1%), so print at
	// one decimal.
	fmt.Printf("%.1f %.1f %.1f %.1f\n", y[0], y[1], y[2], y[3])
	// Output: 0.0 1.0 0.0 0.0
}

// ExampleAccelerator_MatMul multiplies a 24×40 matrix by a 40×8 one: a
// 3×5 grid of 8×8 blocks, each programmed into a partition once and
// driven with all 8 columns as one WDM λ-batch (Sec 3.3.1).
func ExampleAccelerator_MatMul() {
	rng := rand.New(rand.NewSource(42))
	m := uniform(rng, 24, 40, 1)
	x := uniform(rng, 40, 8, 1)
	acc, err := flumen.NewAccelerator(16, 8)
	if err != nil {
		log.Fatal(err)
	}
	got, err := acc.MatMul(m, x)
	if err != nil {
		log.Fatal(err)
	}
	var worst float64
	for i := range got {
		for j := range got[i] {
			var ref float64
			for k := range x {
				ref += m[i][k] * x[k][j]
			}
			worst = max(worst, math.Abs(got[i][j]-ref))
		}
	}
	st := acc.Stats()
	fmt.Printf("8-bit max error %.3f; %d programs, %d λ-batches\n", worst, st.Programs, st.Batches)
	// Output: 8-bit max error 0.117; 15 programs, 15 λ-batches
}

// ExampleAccelerator_Conv2D runs a two-layer network on the fabric — four
// 3×3×2 kernels over an 8×8×2 input (Fig. 7's im2col lowering), ReLU, and
// a 10-class fully-connected head — and predicts the class the float64
// network predicts.
func ExampleAccelerator_Conv2D() {
	rng := rand.New(rand.NewSource(99))
	input := make([][][]float64, 2)
	for c := range input {
		input[c] = uniform(rng, 8, 8, 1)
	}
	kernels := make([][][][]float64, 4)
	for k := range kernels {
		kernels[k] = make([][][]float64, 2)
		for c := range kernels[k] {
			kernels[k][c] = uniform(rng, 3, 3, 3)
		}
	}
	fc := uniform(rng, 10, 4*6*6, 8)

	acc, err := flumen.NewAccelerator(16, 8)
	if err != nil {
		log.Fatal(err)
	}
	conv, err := acc.Conv2D(input, kernels, 1, 0)
	if err != nil {
		log.Fatal(err)
	}
	// The float64 network: direct convolution, ReLU, FC.
	var feat, refFeat []float64
	var worstFeat float64
	for k := range kernels {
		for y := range conv[k] {
			for x := range conv[k][y] {
				var ref float64
				for c := range input {
					for ky := range kernels[k][c] {
						for kx, w := range kernels[k][c][ky] {
							ref += w * input[c][y+ky][x+kx]
						}
					}
				}
				worstFeat = max(worstFeat, math.Abs(conv[k][y][x]-ref))
				feat = append(feat, max(conv[k][y][x], 0))
				refFeat = append(refFeat, max(ref, 0))
			}
		}
	}
	logits, err := acc.MatVecCtx(context.Background(), fc, feat)
	if err != nil {
		log.Fatal(err)
	}
	refLogits := make([]float64, len(fc))
	var worstLogit float64
	for i := range fc {
		for j, w := range fc[i] {
			refLogits[i] += w * refFeat[j]
		}
		worstLogit = max(worstLogit, math.Abs(logits[i]-refLogits[i]))
	}
	st := acc.Stats()
	fmt.Printf("conv error %.3f, logit error %.3f\n", worstFeat, worstLogit)
	fmt.Printf("class %d, float64 class %d\n", argmax(logits), argmax(refLogits))
	fmt.Printf("%d programs, %d λ-batches\n", st.Programs, st.Batches)
	// Output:
	// conv error 0.019, logit error 0.016
	// class 1, float64 class 1
	// 39 programs, 51 λ-batches
}

// ExampleRunBenchmark compares the JPEG benchmark on the electrical mesh
// and on Flumen with dynamic offload, at the paper's 64 cores.
func ExampleRunBenchmark() {
	cfg := flumen.DefaultConfig()
	mesh, err := flumen.RunBenchmark("JPEG", "Mesh", cfg)
	if err != nil {
		log.Fatal(err)
	}
	fa, err := flumen.RunBenchmark("JPEG", "Flumen-A", cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Mesh %d cycles, Flumen-A %d cycles: speedup %.2f×, energy gain %.2f×\n",
		mesh.Cycles, fa.Cycles, fa.SpeedupOver(mesh), fa.EnergyGainOver(mesh))
	fmt.Printf("Flumen-A offloaded %d kernels (%d phase programs, %d reuses)\n",
		fa.OffloadsGranted, fa.Reprograms, fa.TagReuses)
	// Output:
	// Mesh 61530 cycles, Flumen-A 20099 cycles: speedup 3.06×, energy gain 3.18×
	// Flumen-A offloaded 3072 kernels (424 phase programs, 2648 reuses)
}

// uniform returns an r×c matrix of entries uniform in [-1/div, 1/div).
func uniform(rng *rand.Rand, r, c int, div float64) [][]float64 {
	m := make([][]float64, r)
	for i := range m {
		m[i] = make([]float64, c)
		for j := range m[i] {
			m[i][j] = (2*rng.Float64() - 1) / div
		}
	}
	return m
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
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

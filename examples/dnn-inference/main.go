// DNN inference on the photonic fabric: a small two-layer network — a
// convolutional feature extractor lowered through im2col (Fig. 7) followed
// by a fully-connected classifier head — executed entirely as photonic
// block matrix multiplications at 8-bit equivalent precision, with ReLU
// and argmax on the "cores". Verifies the photonic prediction agrees with
// the float64 reference and reports per-layer compute energy.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"flumen"
	"flumen/internal/workload"
)

func main() {
	rng := rand.New(rand.NewSource(99))

	// Layer 1: 8×8×2 input, four 3×3×2 kernels, stride 1, no padding →
	// 6×6×4 output.
	shape := workload.ConvShape{InW: 8, InH: 8, InC: 2, KW: 3, KH: 3, NumKernels: 4, Stride: 1, Pad: 0}
	in := workload.NewVolume(shape.InW, shape.InH, shape.InC)
	for i := range in.Data {
		in.Data[i] = 2*rng.Float64() - 1
	}
	kernels := make([][]float64, shape.NumKernels)
	for k := range kernels {
		kernels[k] = make([]float64, shape.PatchLen())
		for i := range kernels[k] {
			kernels[k][i] = (2*rng.Float64() - 1) / 3
		}
	}
	// Layer 2: FC 10 × (6·6·4).
	features := shape.Patches() * shape.NumKernels
	const classes = 10
	fcW := make([][]float64, classes)
	for i := range fcW {
		fcW[i] = make([]float64, features)
		for j := range fcW[i] {
			fcW[i][j] = (2*rng.Float64() - 1) / 8
		}
	}

	relu := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			if x > 0 {
				out[i] = x
			}
		}
		return out
	}
	argmax := func(xs []float64) int {
		best := 0
		for i, x := range xs {
			if x > xs[best] {
				best = i
			}
		}
		_ = xs[best]
		return best
	}

	// ---- float64 reference ----
	conv := workload.ConvViaMatMul(shape, in, kernels)
	refFeat := relu(append([]float64(nil), conv.Data...))
	refLogits := make([]float64, classes)
	for i := range fcW {
		for j, w := range fcW[i] {
			refLogits[i] += w * refFeat[j]
		}
	}
	refClass := argmax(refLogits)

	// ---- photonic path ----
	acc, err := flumen.NewAccelerator(16, 8)
	if err != nil {
		log.Fatal(err)
	}
	// Conv as kernel-matrix × im2col-matrix.
	km := make([][]float64, shape.NumKernels)
	for k := range km {
		km[k] = kernels[k]
	}
	convOut, err := acc.MatMul(km, workload.Im2Col(shape, in))
	if err != nil {
		log.Fatal(err)
	}
	convEnergy := acc.EnergyPJ()
	// Feature vector in the same (channel-major) order as the reference.
	feat := make([]float64, features)
	for k := 0; k < shape.NumKernels; k++ {
		for p := 0; p < shape.Patches(); p++ {
			feat[k*shape.Patches()+p] = convOut[k][p]
		}
	}
	feat = relu(feat)
	logits, err := acc.MatVec(fcW, feat)
	if err != nil {
		log.Fatal(err)
	}
	photClass := argmax(logits)

	var worstFeat, worstLogit float64
	for i := range refFeat {
		if d := math.Abs(feat[i] - refFeat[i]); d > worstFeat {
			worstFeat = d
		}
	}
	for i := range refLogits {
		if d := math.Abs(logits[i] - refLogits[i]); d > worstLogit {
			worstLogit = d
		}
	}
	st := acc.Stats()
	programs, batches := st.Programs, st.Batches

	fmt.Println("two-layer photonic inference (conv 3×3×2→4 + FC→10, 8-bit analog):")
	fmt.Printf("  conv feature error (max):   %.4f\n", worstFeat)
	fmt.Printf("  logit error (max):          %.4f\n", worstLogit)
	fmt.Printf("  predicted class: photonic=%d  reference=%d  (%s)\n",
		photClass, refClass, matchWord(photClass == refClass))
	fmt.Printf("  fabric work: %d phase programs, %d λ-batches\n", programs, batches)
	fmt.Printf("  photonic energy: conv %.0f pJ, FC %.0f pJ, total %.0f pJ\n",
		convEnergy, acc.EnergyPJ()-convEnergy, acc.EnergyPJ())

	fmt.Println("\nlogits (photonic vs reference):")
	for i := range logits {
		marker := "  "
		if i == photClass {
			marker = "→ "
		}
		fmt.Printf("  %sclass %d: %+8.4f vs %+8.4f\n", marker, i, logits[i], refLogits[i])
	}
}

func matchWord(ok bool) string {
	if ok {
		return "match"
	}
	return "MISMATCH"
}

package optics

import (
	"math"
)

// Levels returns the number of quantization levels, 2^Bits.
func (q Quantizer) Levels() int { return 1 << q.Bits }

// MaxError returns the worst-case rounding error for in-range inputs
// (half a step).
func (q Quantizer) MaxError() float64 { return q.Step() / 2 }

// ApplyVec injects noise into each element of xs in place and returns it.
func (n NoiseModel) ApplyVec(xs []float64) []float64 {
	for i, x := range xs {
		xs[i] = n.Apply(x)
	}
	return xs
}

// PowerRatioToDB converts a linear power ratio to dB.
func PowerRatioToDB(r float64) float64 { return 10 * math.Log10(r) }

// Quantize rounds x to the nearest representable level, clipping to full
// scale.
func (q Quantizer) Quantize(x float64) float64 {
	return quantize(x, q.Step(), float64(q.maxCode()))
}

package optics

import (
	"fmt"
	"math"
	"math/rand"
)

// Quantizer models the DAC/ADC conversion chain that bounds the analog
// MZIM computation to "8-bit equivalent" precision (Table 1). Values are
// signed and clipped to [-FullScale, FullScale], then rounded to 2^Bits
// uniform levels. Signed amplitudes are physically realized with coherent
// modulation (a π phase encodes the sign).
type Quantizer struct {
	Bits      int
	FullScale float64
}

// NewQuantizer returns a quantizer with the given bit depth and full-scale
// range. Bits must be in [1, 24].
func NewQuantizer(bits int, fullScale float64) Quantizer {
	if bits < 1 || bits > 24 {
		panic(fmt.Sprintf("optics: quantizer bits %d outside [1,24]", bits))
	}
	if fullScale <= 0 {
		panic("optics: quantizer full scale must be positive")
	}
	return Quantizer{Bits: bits, FullScale: fullScale}
}

// maxCode returns the largest signed code, 2^(Bits-1)−1. The symmetric
// signed grid k·Step for k ∈ [−maxCode, maxCode] represents zero and both
// full-scale extremes exactly.
func (q Quantizer) maxCode() int { return 1<<(q.Bits-1) - 1 }

// Step returns the quantization step size.
func (q Quantizer) Step() float64 { return q.FullScale / float64(q.maxCode()) }

// quantize is Quantize with the step and the largest code already derived,
// so QuantizeVec pays for the division behind Step once per vector instead
// of once per element.
func quantize(x, step, max float64) float64 {
	k := math.Round(x / step)
	if k > max {
		k = max
	}
	if k < -max {
		k = -max
	}
	return k * step
}

// QuantizeVec quantizes a real vector in place and returns it.
func (q Quantizer) QuantizeVec(xs []float64) []float64 {
	step, max := q.Step(), float64(q.maxCode())
	for i, x := range xs {
		xs[i] = quantize(x, step, max)
	}
	return xs
}

// NoiseModel adds the analog noise sources of the photonic receive chain:
// laser relative intensity noise and an aggregate thermal/shot noise floor,
// both expressed as standard deviations relative to full scale. A nil
// *rand.Rand disables noise injection (deterministic mode).
type NoiseModel struct {
	RINSigma     float64 // multiplicative: out *= (1 + N(0, RINSigma))
	ThermalSigma float64 // additive: out += N(0, ThermalSigma·FullScale)
	FullScale    float64
	Rng          *rand.Rand
}

// Apply injects noise into a detected value.
func (n NoiseModel) Apply(x float64) float64 {
	if n.Rng == nil {
		return x
	}
	x *= 1 + n.Rng.NormFloat64()*n.RINSigma
	x += n.Rng.NormFloat64() * n.ThermalSigma * n.FullScale
	return x
}

// DefaultNoise returns a noise model consistent with the Table 2 devices:
// -140 dBc/Hz RIN integrated over a 5 GHz detection bandwidth gives an RIN
// sigma of about 10^((-140+10·log10(5e9))/20) ≈ 2.2e-3, and the
// thermal/shot floor is set one LSB below 8-bit resolution.
func DefaultNoise(fullScale float64, rng *rand.Rand) NoiseModel {
	rinDB := -140.0 + 10*math.Log10(5e9)
	return NoiseModel{
		RINSigma:     math.Pow(10, rinDB/20),
		ThermalSigma: 1.0 / (2 * 256),
		FullScale:    fullScale,
		Rng:          rng,
	}
}

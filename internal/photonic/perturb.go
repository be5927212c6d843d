package photonic

import (
	"math"
	"math/rand"
)

// Phase-error injection: thermal drift and fabrication nonuniformity
// perturb MZI phase settings away from their programmed values. The paper
// argues MZIs tolerate this better than MRR-based accelerators (Sec 6);
// these helpers quantify the sensitivity by perturbing every θ and φ with
// Gaussian noise and letting callers measure the matrix error that
// results.

// PerturbPhases adds N(0, sigma²) radians to every MZI phase pair in the
// mesh (clamping θ into [0, π]) and returns the number of devices
// perturbed. The output phase screen, being implemented with the same
// phase-shifter technology, is perturbed too.
func (m *Mesh) PerturbPhases(sigma float64, rng *rand.Rand) int {
	count := 0
	for _, col := range m.cols {
		for _, z := range col {
			if z == nil {
				continue
			}
			theta := z.Theta + rng.NormFloat64()*sigma
			phi := z.Phi + rng.NormFloat64()*sigma
			theta, phi = normalizePhases(theta, phi)
			*z = MZI{Theta: theta, Phi: phi}
			count++
		}
	}
	for i := range m.outPhase {
		m.outPhase[i] *= phaseFactor(rng.NormFloat64() * sigma)
	}
	m.invalidate()
	return count
}

// PerturbPhases perturbs the whole Flumen fabric: mesh MZIs, the
// attenuator column, and the output screen.
func (f *FlumenMesh) PerturbPhases(sigma float64, rng *rand.Rand) int {
	count := f.mesh.PerturbPhases(sigma, rng)
	for i := range f.atten {
		a := f.atten[i]
		theta := a.Theta + rng.NormFloat64()*sigma
		phi := a.Phi + rng.NormFloat64()*sigma
		theta, phi = normalizePhases(theta, phi)
		f.atten[i] = Attenuator{Theta: theta, Phi: phi}
		count++
	}
	f.attenGen.Add(1)
	return count
}

// phaseFactor returns e^{jφ} as a complex factor.
func phaseFactor(phi float64) complex128 {
	return complex(math.Cos(phi), math.Sin(phi))
}

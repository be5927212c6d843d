package photonic

import (
	"math"
	"math/cmplx"
	"math/rand"

	"flumen/internal/mat"
)

// Fabrication imperfections: real MZIs are built from two directional
// couplers whose splitting ratio deviates from 50:50 by a fabrication-
// dependent amount. Unlike phase errors (which tuning can null), coupler
// imbalance is static and limits the fidelity of open-loop Clements
// programming — the problem the paper's cited programming literature
// ([33] Pai et al., "Matrix Optimization on Universal Unitary Photonic
// Devices", and [15] Hamerly et al. self-configuration) addresses with
// measurement-in-the-loop optimization. This file adds per-device coupler
// errors to the Mesh and an in-situ coordinate-descent optimizer that
// recovers accuracy on imperfect hardware.

// beamSplitter returns the transfer of a directional coupler sending power
// fraction eta to the straight-through arm.
func beamSplitter(eta float64) [2][2]complex128 {
	t := complex(math.Sqrt(eta), 0)
	k := complex(0, math.Sqrt(1-eta))
	return [2][2]complex128{{t, k}, {k, t}}
}

// imperfectTransfer builds the physical MZI transfer from its constituent
// devices — input phase φ, first coupler η1, internal phase θ, second
// coupler η2 — normalized so that η1 = η2 = ½ reproduces Eq. 1 exactly:
//
//	T = e^{-jθ} · BS(η2)·diag(e^{jθ},1)·BS(η1)·diag(e^{jφ},1).
func imperfectTransfer(z MZI, eta1, eta2 float64) [2][2]complex128 {
	b1 := beamSplitter(eta1)
	b2 := beamSplitter(eta2)
	ephi := cmplx.Exp(complex(0, z.Phi))
	etheta := cmplx.Exp(complex(0, z.Theta))
	// A = BS(η1)·diag(e^{jφ},1)
	a := [2][2]complex128{
		{b1[0][0] * ephi, b1[0][1]},
		{b1[1][0] * ephi, b1[1][1]},
	}
	// B = diag(e^{jθ},1)·A
	b := [2][2]complex128{
		{etheta * a[0][0], etheta * a[0][1]},
		{a[1][0], a[1][1]},
	}
	// C = BS(η2)·B, then the e^{-jθ} normalization.
	norm := cmplx.Exp(complex(0, -z.Theta))
	return [2][2]complex128{
		{norm * (b2[0][0]*b[0][0] + b2[0][1]*b[1][0]), norm * (b2[0][0]*b[0][1] + b2[0][1]*b[1][1])},
		{norm * (b2[1][0]*b[0][0] + b2[1][1]*b[1][0]), norm * (b2[1][0]*b[0][1] + b2[1][1]*b[1][1])},
	}
}

// SetFabricationErrors assigns every MZI a pair of static coupler
// splitting errors drawn from N(0, sigma²) around the ideal 50:50 point,
// and returns the number of devices affected. Passing sigma = 0 restores
// ideal couplers.
func (m *Mesh) SetFabricationErrors(sigma float64, rng *rand.Rand) int {
	defer m.invalidate()
	if sigma == 0 {
		m.fabEta = nil
		return m.NumMZIs()
	}
	m.fabEta = make([][][2]float64, m.depth)
	count := 0
	for c := 0; c < m.depth; c++ {
		m.fabEta[c] = make([][2]float64, m.n-1)
		for w := 0; w <= m.n-2; w++ {
			if m.cols[c][w] == nil {
				continue
			}
			e1 := clampEta(0.5 + rng.NormFloat64()*sigma)
			e2 := clampEta(0.5 + rng.NormFloat64()*sigma)
			m.fabEta[c][w] = [2]float64{e1, e2}
			count++
		}
	}
	return count
}

func clampEta(eta float64) float64 {
	if eta < 0.01 {
		return 0.01
	}
	if eta > 0.99 {
		return 0.99
	}
	return eta
}

// InSituOptimize fine-tunes every MZI phase pair and output phase by
// measurement-driven exact coordinate minimization, returning the final
// error ‖Measured − target‖_F. Because every transfer matrix entry is
// affine in e^{jx} for each individual phase x, the squared Frobenius
// error is exactly a + b·cos x + c·sin x along any single coordinate;
// three physical measurements determine the sinusoid and its global
// minimum in closed form. This is the in-situ matrix optimization of the
// paper's programming references ([33] Pai et al.), and recovers most of
// the fidelity lost to coupler imbalance that open-loop Clements
// programming cannot see.
func (m *Mesh) InSituOptimize(target *mat.Dense, passes int) float64 {
	if target.Rows() != m.n || target.Cols() != m.n {
		panic("photonic: InSituOptimize target size mismatch")
	}
	// The coordinate probes below write phases through raw pointers, so
	// every measurement recompiles the plan first.
	measure := func() float64 {
		m.invalidate()
		return mat.Sub(m.Matrix(), target).FrobeniusNorm()
	}
	err2 := func() float64 {
		d := measure()
		return d * d
	}
	for pass := 0; pass < passes; pass++ {
		for c := 0; c < m.depth; c++ {
			for w := c % 2; w <= m.n-2; w += 2 {
				z := m.cols[c][w]
				if z == nil {
					continue
				}
				minimizeSinusoid(&z.Theta, 0, math.Pi, err2)
				minimizeSinusoid(&z.Phi, math.Inf(-1), math.Inf(1), err2)
			}
		}
		for i := range m.outPhase {
			angle := cmplx.Phase(m.outPhase[i])
			set := func(x float64) { m.outPhase[i] = cmplx.Exp(complex(0, x)) }
			minimizeSinusoidFunc(angle, math.Inf(-1), math.Inf(1), set, err2)
		}
	}
	return measure()
}

// minimizeSinusoid minimizes err2 over *p, exploiting the exact
// a + b·cos x + c·sin x form, with the result clamped to [lo, hi].
func minimizeSinusoid(p *float64, lo, hi float64, err2 func() float64) {
	x0 := *p
	minimizeSinusoidFunc(x0, lo, hi, func(x float64) { *p = x }, err2)
}

// minimizeSinusoidFunc fits E²(x) = a + b·cos x + c·sin x from three
// probes and jumps to the constrained minimizer.
func minimizeSinusoidFunc(x0, lo, hi float64, set func(float64), err2 func() float64) {
	const d = 2 * math.Pi / 3
	set(x0)
	e0 := err2()
	set(x0 + d)
	e1 := err2()
	set(x0 - d)
	e2 := err2()
	// With y = x − x0: E = a + b·cos y + c·sin y sampled at 0, ±2π/3.
	a := (e0 + e1 + e2) / 3
	b := (2*e0 - e1 - e2) / 3
	c := (e1 - e2) / math.Sqrt(3)
	best := x0
	bestE := e0
	if b != 0 || c != 0 {
		yStar := math.Atan2(-c, -b) // minimizes b·cos y + c·sin y
		cand := x0 + yStar
		// Bring the candidate near x0's branch and clamp.
		for cand > x0+math.Pi {
			cand -= 2 * math.Pi
		}
		for cand < x0-math.Pi {
			cand += 2 * math.Pi
		}
		if cand < lo {
			cand = lo
		}
		if cand > hi {
			cand = hi
		}
		set(cand)
		if e := err2(); e < bestE {
			best, bestE = cand, e
		}
	}
	_ = a
	set(best)
}

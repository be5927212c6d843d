// Package photonic models the photonic fabric of the Flumen architecture:
// Mach-Zehnder interferometers (MZIs), rectangular Clements-style MZI meshes
// (MZIMs) with exact complex E-field transfer-matrix propagation, the SVD
// mesh of Fig. 4 as a compiled weight program (BlockProgram), and the
// Flumen mesh of Fig. 5 (a unitary MZIM augmented with a mid-mesh
// attenuator column that supports dynamic partitioning into communication
// and computation regions). Every one of them propagates light through a
// CompiledPlan (compile.go).
//
// All device math operates on E-field amplitudes (complex128); optical
// power is |E|². Loss, laser power and quantization are modelled separately
// in internal/optics so the unitary mathematics stays exact here.
package photonic

import (
	"fmt"
	"math"
	"math/cmplx"
)

// MZI is a Mach-Zehnder interferometer parameterized by an amplitude
// modulating phase shift Theta ∈ [0, π] and a tuning phase shift
// Phi ∈ [0, 2π), as in Eq. (1) of the paper:
//
//	T(θ,φ) = j·e^{-jθ/2} · [ e^{jφ}·sin(θ/2)   cos(θ/2) ]
//	                       [ e^{jφ}·cos(θ/2)  -sin(θ/2) ]
//
// θ=0 is the cross state (top input → bottom output and vice versa);
// θ=π is the bar state (straight through). Intermediate θ values split
// power between the two outputs.
type MZI struct {
	Theta float64
	Phi   float64
}

// Cross returns an MZI in the cross state (θ=0).
func Cross() MZI { return MZI{Theta: 0} }

// Bar returns an MZI in the bar state (θ=π).
func Bar() MZI { return MZI{Theta: math.Pi} }

// IsCross reports whether the MZI is (numerically) in the cross state.
func (z MZI) IsCross() bool { return math.Abs(z.Theta) < 1e-9 }

// IsBar reports whether the MZI is (numerically) in the bar state.
func (z MZI) IsBar() bool { return math.Abs(z.Theta-math.Pi) < 1e-9 }

// Transfer returns the 2×2 complex transfer matrix of Eq. (1) as
// [row][col] indexed values acting on the (top, bottom) E-field pair.
func (z MZI) Transfer() [2][2]complex128 {
	s := math.Sin(z.Theta / 2)
	c := math.Cos(z.Theta / 2)
	g := complex(0, 1) * cmplx.Exp(complex(0, -z.Theta/2)) // j·e^{-jθ/2}
	ephi := cmplx.Exp(complex(0, z.Phi))
	return [2][2]complex128{
		{g * ephi * complex(s, 0), g * complex(c, 0)},
		{g * ephi * complex(c, 0), g * complex(-s, 0)},
	}
}

// normalizePhases clamps θ into [0, π] and wraps φ into [0, 2π).
func normalizePhases(theta, phi float64) (float64, float64) {
	if theta < 0 {
		theta = 0
	}
	if theta > math.Pi {
		theta = math.Pi
	}
	phi = math.Mod(phi, 2*math.Pi)
	if phi < 0 {
		phi += 2 * math.Pi
	}
	return theta, phi
}

// Attenuator is an MZI connected only at its top two ports, acting as a
// pure amplitude modulator (the open-circle devices of Fig. 4 and the
// loss-equalization column of Fig. 5). Its field transmission is
// j·e^{-jθ/2}·e^{jφ}·sin(θ/2), so any complex factor with magnitude ≤ 1 is
// realizable by choosing θ and φ.
type Attenuator struct {
	Theta float64
	Phi   float64
}

// Amplitude returns the complex field transmission factor.
func (a Attenuator) Amplitude() complex128 {
	s := math.Sin(a.Theta / 2)
	return complex(0, 1) * cmplx.Exp(complex(0, -a.Theta/2)) *
		cmplx.Exp(complex(0, a.Phi)) * complex(s, 0)
}

// NewAttenuator returns an attenuator realizing the complex transmission t.
// It panics if |t| > 1 (attenuators cannot amplify; see Sec 3.3.1).
func NewAttenuator(t complex128) Attenuator {
	mag := cmplx.Abs(t)
	if mag > 1+1e-12 {
		panic(fmt.Sprintf("photonic: attenuator transmission |%v| > 1", t))
	}
	if mag > 1 {
		mag = 1
	}
	theta := 2 * math.Asin(mag)
	// Residual device phase at this θ is j·e^{-jθ/2}; pick φ to cancel it
	// and add the requested phase.
	want := 0.0
	if mag > 0 {
		want = cmplx.Phase(t)
	}
	phi := want - (math.Pi/2 - theta/2)
	theta, phi = normalizePhases(theta, phi)
	return Attenuator{Theta: theta, Phi: phi}
}

// Unit returns a fully transmissive attenuator (t = 1).
func Unit() Attenuator { return NewAttenuator(1) }

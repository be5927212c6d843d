// Package layout models the physical interposer floorplan of Fig. 9: a
// 4×4 grid of chiplets over a silicon interposer that carries either the
// electrical NoP wiring or the Flumen photonic fabric. Link lengths derive
// the distance-dependent energies of the electrical topologies (Sec 1:
// "link power scales linearly with distance") and the waveguide runs that
// feed the photonic loss budgets.
package layout

import (
	"fmt"
	"math"
)

// Floorplan places chiplets on a grid with a given pitch (chiplet edge
// plus spacing), in millimetres.
type Floorplan struct {
	Rows, Cols int
	PitchMM    float64
}

// DefaultFloorplan returns the paper's 16-chiplet arrangement: 4×4
// chiplets of ~9.46 mm² (≈3.1 mm edge) with interposer routing channels,
// giving a ~3.6 mm pitch.
func DefaultFloorplan() Floorplan {
	return Floorplan{Rows: 4, Cols: 4, PitchMM: 3.6}
}

// Nodes returns the chiplet count.
func (f Floorplan) Nodes() int { return f.Rows * f.Cols }

// Position returns the center coordinates of chiplet i in millimetres.
func (f Floorplan) Position(i int) (x, y float64) {
	if i < 0 || i >= f.Nodes() {
		panic(fmt.Sprintf("layout: chiplet %d out of range", i))
	}
	return float64(i%f.Cols) * f.PitchMM, float64(i/f.Cols) * f.PitchMM
}

// Distance returns the Manhattan routing distance between chiplets a and b
// (interposer wires route on a grid).
func (f Floorplan) Distance(a, b int) float64 {
	ax, ay := f.Position(a)
	bx, by := f.Position(b)
	return math.Abs(ax-bx) + math.Abs(ay-by)
}

// MeshLinkLengthMM returns the electrical mesh's link length: chiplets are
// adjacent in the grid, so every link spans one pitch.
func (f Floorplan) MeshLinkLengthMM() float64 { return f.PitchMM }

// RingLinkLengthsMM returns the per-hop wire lengths of a ring that
// connects the chiplets in index order (the naive embedding drawn in
// Fig. 10a): row-internal hops span one pitch, row-to-row wrap hops cross
// the die.
func (f Floorplan) RingLinkLengthsMM() []float64 {
	n := f.Nodes()
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = f.Distance(i, (i+1)%n)
	}
	return out
}

// AvgRingLinkLengthMM returns the mean hop length of the index-order ring.
func (f Floorplan) AvgRingLinkLengthMM() float64 {
	var s float64
	ls := f.RingLinkLengthsMM()
	for _, l := range ls {
		s += l
	}
	return s / float64(len(ls))
}

// WaveguideRunCM returns the waveguide length from chiplet i to the MZIM
// fabric at the interposer center, in centimetres — the per-path waveguide
// loss input of the photonic budgets (Table 2 quotes dB/cm).
func (f Floorplan) WaveguideRunCM(i int) float64 {
	cx := float64(f.Cols-1) / 2 * f.PitchMM
	cy := float64(f.Rows-1) / 2 * f.PitchMM
	x, y := f.Position(i)
	return (math.Abs(x-cx) + math.Abs(y-cy)) / 10
}

// WorstWaveguideRunCM returns the longest chiplet-to-fabric waveguide.
func (f Floorplan) WorstWaveguideRunCM() float64 {
	worst := 0.0
	for i := 0; i < f.Nodes(); i++ {
		if l := f.WaveguideRunCM(i); l > worst {
			worst = l
		}
	}
	return worst
}

// RoundTripWaveguideCM returns the worst-case source→fabric→destination
// waveguide run, the length used in the loss budgets of internal/optics.
func (f Floorplan) RoundTripWaveguideCM() float64 {
	return 2 * f.WorstWaveguideRunCM()
}

// RingEnergyScaleVsMesh returns the ratio of average ring link length
// (index-order embedding) to the mesh link length — the wire-length
// component of the ring's per-bit energy premium. The naive embedding
// gives ≈1.9×; the remaining factor in internal/energy's 2.9 pJ/bit ring
// calibration reflects the ring's 1.75× wider links (1.4 Tbps vs
// 800 Gbps at matched bisection bandwidth) driving longer parallel lane
// bundles at lower signalling efficiency.
func (f Floorplan) RingEnergyScaleVsMesh() float64 {
	return f.AvgRingLinkLengthMM() / f.MeshLinkLengthMM()
}

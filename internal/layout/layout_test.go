package layout

import (
	"math"
	"testing"
)

func TestPositionsAndDistances(t *testing.T) {
	f := DefaultFloorplan()
	if f.Nodes() != 16 {
		t.Fatalf("nodes %d", f.Nodes())
	}
	x, y := f.Position(0)
	if x != 0 || y != 0 {
		t.Fatalf("origin at (%g,%g)", x, y)
	}
	x, y = f.Position(5) // row 1, col 1
	if math.Abs(x-3.6) > 1e-12 || math.Abs(y-3.6) > 1e-12 {
		t.Fatalf("chiplet 5 at (%g,%g)", x, y)
	}
	if d := f.Distance(0, 5); math.Abs(d-7.2) > 1e-12 {
		t.Fatalf("Manhattan distance 0→5 = %g", d)
	}
	if d := f.Distance(3, 3); d != 0 {
		t.Fatalf("self distance %g", d)
	}
}

func TestPositionPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range chiplet accepted")
		}
	}()
	DefaultFloorplan().Position(16)
}

func TestIndexRingLongerThanMesh(t *testing.T) {
	f := DefaultFloorplan()
	scale := f.RingEnergyScaleVsMesh()
	if scale < 1.5 || scale > 2.5 {
		t.Fatalf("ring/mesh wire-length scale %.2f, expected ≈1.9", scale)
	}
}

func TestWaveguideRunsCoverTheGrid(t *testing.T) {
	f := DefaultFloorplan()
	worst := f.WorstWaveguideRunCM()
	// Corner chiplet to center: (1.5+1.5)·pitch = 10.8 mm = 1.08 cm.
	if math.Abs(worst-1.08) > 1e-9 {
		t.Fatalf("worst waveguide run %.3f cm, want 1.08", worst)
	}
	if rt := f.RoundTripWaveguideCM(); math.Abs(rt-2.16) > 1e-9 {
		t.Fatalf("round trip %.3f cm", rt)
	}
	// Center chiplets have the shortest runs.
	if f.WaveguideRunCM(5) >= f.WaveguideRunCM(0) {
		t.Fatal("center chiplet should be closer to the fabric than a corner")
	}
}

func TestWaveguideLossStaysSmall(t *testing.T) {
	// Sanity tie-in with the optics budget: ≈2.2 cm of straight waveguide
	// at 1.5 dB/cm is ~3.2 dB — small next to the per-device losses, as
	// the paper's low-loss-waveguide argument requires.
	f := DefaultFloorplan()
	lossDB := f.RoundTripWaveguideCM() * 1.5
	if lossDB > 4 {
		t.Fatalf("waveguide loss %.1f dB implausibly high for an interposer", lossDB)
	}
}

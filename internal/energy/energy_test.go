package energy

import (
	"math"
	"testing"
)

func TestElecMACAnchor(t *testing.T) {
	p := Default()
	// Paper anchor: 8×8 matmul with 4 input vectors on the approximate
	// multiplier consumed 69.2 pJ (256 MACs).
	got := p.ElecMatMulPJ(8, 4)
	if math.Abs(got-69.2) > 0.5 {
		t.Fatalf("elec 8×8×4 = %g pJ, want ≈69.2", got)
	}
	// 16×16 with 8 vectors: 554 pJ.
	got = p.ElecMatMulPJ(16, 8)
	if math.Abs(got-554) > 5 {
		t.Fatalf("elec 16×16×8 = %g pJ, want ≈554", got)
	}
}

func TestFlumenComputeAnchors(t *testing.T) {
	p := Default()
	// Fig 12b anchors used for calibration.
	cases := []struct {
		n, v   int
		wantPJ float64
		tolPct float64
	}{
		{8, 4, 33.8, 5},
		{64, 1, 620, 5},
		{64, 4, 1320, 5},
		{64, 8, 2240, 5}, // predicted by the linear-in-v model; paper 2.24 nJ
	}
	for _, c := range cases {
		got := p.FlumenComputePJ(c.n, c.v)
		if math.Abs(got-c.wantPJ)/c.wantPJ*100 > c.tolPct {
			t.Errorf("Flumen E(%d,%d) = %.1f pJ, want %.1f ±%g%%", c.n, c.v, got, c.wantPJ, c.tolPct)
		}
	}
}

func TestFlumenBeatsElectricalAtAnchor(t *testing.T) {
	p := Default()
	// 8×8 with 4 vectors: ~2× better (paper: 69.2 vs 33.8 pJ).
	ratio := p.ElecMatMulPJ(8, 4) / p.FlumenComputePJ(8, 4)
	if ratio < 1.8 || ratio > 2.4 {
		t.Fatalf("8×8×4 ratio %.2f, want ≈2", ratio)
	}
	// 64×64 ratios: 1.8×, 3.4×, 4.0× for 1/4/8 MVMs.
	for _, c := range []struct {
		v    int
		want float64
	}{{1, 1.8}, {4, 3.4}, {8, 4.0}} {
		r := p.ElecMatMulPJ(64, c.v) / p.FlumenComputePJ(64, c.v)
		if math.Abs(r-c.want) > 0.3 {
			t.Errorf("64×64×%d ratio %.2f, want ≈%.1f", c.v, r, c.want)
		}
	}
}

func TestFlumenMACEnergyImprovesWithWavelengths(t *testing.T) {
	// Fig 12c: more parallel vectors amortize the programming energy.
	p := Default()
	prev := math.Inf(1)
	for _, v := range []int{1, 2, 4, 8, 16} {
		e := p.FlumenMACEnergyPJ(8, v)
		if e >= prev {
			t.Fatalf("MAC energy not decreasing at v=%d: %g >= %g", v, e, prev)
		}
		prev = e
	}
}

func TestFlumenMACEnergyVsMeshSize(t *testing.T) {
	// Fig 12c: larger meshes amortize conversion energy until the
	// exponential laser term dominates.
	p := Default()
	e8 := p.FlumenMACEnergyPJ(8, 8)
	e16 := p.FlumenMACEnergyPJ(16, 8)
	if e16 >= e8 {
		t.Fatalf("16-input MAC energy %g not below 8-input %g", e16, e8)
	}
	// At very large N the laser term must eventually dominate and raise
	// the per-MAC energy again.
	e128 := p.FlumenMACEnergyPJ(128, 8)
	e256 := p.FlumenMACEnergyPJ(256, 8)
	if e256 <= e128 {
		t.Fatalf("laser scaling should penalize very large meshes: E(256)=%g <= E(128)=%g", e256, e128)
	}
}

func TestBatchTime(t *testing.T) {
	p := Default()
	// 8 vectors on 8 λs at 5 GHz: one slot of 0.2 ns plus 6 ns switch.
	got := p.FlumenBatchTimeNS(8, 8, 5)
	if math.Abs(got-6.2) > 1e-9 {
		t.Fatalf("batch time %g ns, want 6.2", got)
	}
	// 9 vectors need two slots.
	got = p.FlumenBatchTimeNS(9, 8, 5)
	if math.Abs(got-6.4) > 1e-9 {
		t.Fatalf("batch time %g ns, want 6.4", got)
	}
}

func TestEDP(t *testing.T) {
	// 1 J over 1 s = 1 J·s.
	if got := EDP(1e12, 1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("EDP = %g", got)
	}
}

func TestAreaAnchorsSec51(t *testing.T) {
	a := DefaultArea()
	if math.Abs(a.EndpointMM2-9.46) > 1e-9 {
		t.Fatal("endpoint area wrong")
	}
	// 8×8 MZIM ≈ 5.04 mm², with controller 11.2 mm².
	if math.Abs(a.MZIMAreaMM2(8)-5.04) > 0.01 {
		t.Fatalf("8×8 MZIM area %g, want 5.04", a.MZIMAreaMM2(8))
	}
	if math.Abs(a.FlumenInterposerMM2(8)-11.2) > 0.01 {
		t.Fatalf("interposer area %g, want 11.2", a.FlumenInterposerMM2(8))
	}
	// 16 chiplets occupy 151.36 mm².
	if math.Abs(a.ChipletsAreaMM2(16)-151.36) > 0.01 {
		t.Fatalf("chiplet area %g", a.ChipletsAreaMM2(16))
	}
	// 64×64 MZIM ≈ 291.2 mm² (paper extrapolation ~16 chiplets in size).
	got := a.MZIMAreaMM2(64)
	if math.Abs(got-291.2) > 15 {
		t.Fatalf("64×64 MZIM area %g, want ≈291.2", got)
	}
	// 128 chiplets ≈ 1210.88 mm².
	if math.Abs(a.ChipletsAreaMM2(128)-1210.88) > 0.01 {
		t.Fatalf("128 chiplets area %g", a.ChipletsAreaMM2(128))
	}
}

func TestFlumenMZIMCount(t *testing.T) {
	if FlumenMZIMCount(8) != 36 {
		t.Fatalf("8-input count %d, want 36", FlumenMZIMCount(8))
	}
	if FlumenMZIMCount(64) != 64*63/2+64 {
		t.Fatal("64-input count wrong")
	}
}

func TestElecMACsPJLinear(t *testing.T) {
	p := Default()
	if got := p.ElecMACsPJ(1000); math.Abs(got-1000*p.ElecMACPJ) > 1e-9 {
		t.Fatalf("ElecMACsPJ(1000) = %g", got)
	}
}

func TestElecMACTime(t *testing.T) {
	p := Default()
	// 1M MACs on 64 cores at 2 cycles/MAC and 2.5 GHz: 12.5 µs.
	got := p.ElecMACTimeNS(1_000_000, 64)
	want := 1e6 * 2 / 64 / 2.5
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("ElecMACTimeNS = %g ns, want %g", got, want)
	}
}

func TestSystemAreaComparison(t *testing.T) {
	a := DefaultArea()
	flumen := a.FlumenSystemMM2(16, 8)
	mesh := a.MeshSystemMM2(16)
	// Paper: Flumen 162.6 mm², +17.7 mm² over the (reconciled) mesh system.
	if math.Abs(flumen-162.56) > 0.1 {
		t.Fatalf("Flumen system %g mm²", flumen)
	}
	if math.Abs((flumen-mesh)-17.66) > 0.1 {
		t.Fatalf("overhead %g mm², want ≈17.7", flumen-mesh)
	}
	if math.Abs((flumen-mesh)/mesh-0.122) > 0.005 {
		t.Fatalf("relative overhead %.3f, want ≈0.122", (flumen-mesh)/mesh)
	}
}

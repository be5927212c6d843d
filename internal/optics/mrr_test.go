package optics

import (
	"math"
	"testing"
)

func TestMRROnResonanceBehaviour(t *testing.T) {
	r := DefaultMRR(1550)
	// Drop port delivers the insertion-loss-limited peak on resonance.
	if d := r.DropPower(1550); math.Abs(d-math.Pow(10, -0.1)) > 1e-12 {
		t.Fatalf("on-resonance drop %g", d)
	}
	// Thru port suppressed to the extinction floor.
	if th := r.ThruPower(1550); math.Abs(th-math.Pow(10, -0.7)) > 1e-12 {
		t.Fatalf("on-resonance thru %g", th)
	}
}

func TestMRRFarFromResonance(t *testing.T) {
	r := DefaultMRR(1550)
	// 10 nm away (≈65 linewidths) the ring is essentially transparent.
	if th := r.ThruPower(1560); th < 0.999 {
		t.Fatalf("far-detuned thru %g", th)
	}
	if d := r.DropPower(1560); d > 1e-3 {
		t.Fatalf("far-detuned drop leak %g", d)
	}
}

func TestMRRHalfMaximumAtFWHM(t *testing.T) {
	r := DefaultMRR(1550)
	half := r.DropPower(1550 + r.FWHMnm()/2)
	peak := r.DropPower(1550)
	if math.Abs(half/peak-0.5) > 1e-9 {
		t.Fatalf("FWHM definition broken: %g of peak", half/peak)
	}
}

func TestMRRThermalShift(t *testing.T) {
	r := DefaultMRR(1550)
	// A 1 K drift moves a silicon ring's resonance by ~0.08 nm — about half
	// a linewidth at Q=10k, enough to matter: this is why Table 2 budgets
	// 1 mW of thermal tuning per ring.
	const shift = 0.08
	detuned := r.DropPower(1550 + shift)
	if detuned > 0.75*r.DropPower(1550) {
		t.Fatalf("1 K drift should visibly degrade the drop: %g of peak", detuned/r.DropPower(1550))
	}
}

func TestWDMDemuxDiagonalDominates(t *testing.T) {
	d := NewWDMDemux(16, 0.8)
	x := d.CrosstalkMatrix()
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if i != j && x[i][j] >= x[i][i] {
				t.Fatalf("crosstalk x[%d][%d]=%g not below wanted %g", i, j, x[i][j], x[i][i])
			}
		}
	}
}

func TestWDMCrosstalkWorsensWithChannelCount(t *testing.T) {
	// More wavelengths at fixed spacing → more aggressors → worse
	// aggregate crosstalk: the paper's Sec 6 scalability argument against
	// ring-heavy designs, quantified.
	c16 := NewWDMDemux(16, 0.8).WorstAggregateCrosstalkDB()
	c64 := NewWDMDemux(64, 0.8).WorstAggregateCrosstalkDB()
	if c64 <= c16 {
		t.Fatalf("64-channel crosstalk %g dB not worse than 16-channel %g dB", c64, c16)
	}
}

func TestWDMCrosstalkImprovesWithSpacing(t *testing.T) {
	dense := NewWDMDemux(16, 0.4).WorstAggregateCrosstalkDB()
	sparse := NewWDMDemux(16, 1.6).WorstAggregateCrosstalkDB()
	if sparse >= dense {
		t.Fatalf("wider spacing %g dB not better than dense %g dB", sparse, dense)
	}
}

func TestCrosstalkBoundsAnalogPrecision(t *testing.T) {
	// At 64 channels / 0.8 nm the crosstalk floor limits resolution well
	// below 8 bits — why Flumen modulates compute inputs with MZIs rather
	// than rings (Sec 3.1.1) and keeps only p per-endpoint rings.
	xtalk := NewWDMDemux(64, 0.8).WorstAggregateCrosstalkDB()
	bits := CrosstalkLimitedBits(xtalk)
	if bits > 8 {
		t.Fatalf("crosstalk-limited precision %.1f bits; dense ring banks should not support 8-bit analog", bits)
	}
	if bits < 1 {
		t.Fatalf("crosstalk-limited precision %.1f bits implausibly low", bits)
	}
}

func TestWDMDemuxValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { NewWDMDemux(0, 0.8) },
		func() { NewWDMDemux(8, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid demux accepted")
				}
			}()
			bad()
		}()
	}
}

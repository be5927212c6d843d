package optics

import (
	"math"
	"testing"
)

// WDM link energy budget: Table 1 quotes 0.703 pJ/bit for the 64-λ
// photonic NoP link; this file derives that figure from the Table 2
// device parameters, component by component, the way the paper's
// Lumerical+device-survey methodology would.

// LinkEnergyBudget itemizes the per-bit energy of a point-to-point WDM
// link (Fig. 2): modulator, driver, thermal tuning for the transmit and
// receive ring banks, receive amplification, serialization, and the laser
// share implied by the link's loss budget.
type LinkEnergyBudget struct {
	ModulatorPJ float64
	DriverPJ    float64
	ThermalPJ   float64
	TIAPJ       float64
	SerDesPJ    float64
	LaserPJ     float64
}

// TotalPJPerBit sums the components.
func (b LinkEnergyBudget) TotalPJPerBit() float64 {
	return b.ModulatorPJ + b.DriverPJ + b.ThermalPJ + b.TIAPJ + b.SerDesPJ + b.LaserPJ
}

// WDMLinkBudget computes the per-bit energy budget of a WDM link with p
// wavelengths at the given per-λ modulation rate over a waveguide of the
// given length. Every wavelength carries an independent bit stream, so
// per-λ device powers divide by the per-λ bit rate.
func WDMLinkBudget(d DeviceParams, p int, modulationGHz, waveguideCM float64) LinkEnergyBudget {
	gbps := modulationGHz // per λ
	perBit := func(mw float64) float64 { return mw / gbps }

	// Laser share: each wavelength must deliver the photodiode sensitivity
	// after the link's loss: the modulator bank's thru passes on both ends
	// (2·p·thru), one resonant drop, and the waveguide run.
	var loss LossBudget
	loss.Add("mod+demux thru", 2*p, d.MRRThruLossDB)
	loss.Add("drop", 1, d.MRRDropLossDB)
	loss.Add("waveguide", 1, d.WaveguideStraightLossDBcm*waveguideCM)
	laserPerLambdaMW := DBmToMW(d.PDSensitivityDBm) * DBToPowerRatio(loss.TotalDB()) / d.LaserOWPE

	return LinkEnergyBudget{
		ModulatorPJ: perBit(d.MRRModulationMW),
		DriverPJ:    perBit(d.MRRDriverMW),
		ThermalPJ:   perBit(2 * d.MRRThermalMW), // tx ring + rx ring
		TIAPJ:       perBit(d.TIAPerLambdaMW()),
		SerDesPJ:    perBit(d.SerDesPowerMW),
		LaserPJ:     perBit(laserPerLambdaMW),
	}
}

// TIAPerLambdaMW returns the receive amplifier power per wavelength.
func (d DeviceParams) TIAPerLambdaMW() float64 { return d.TIAPowerUW / 1000 }

func TestWDMLinkBudgetReproducesTable1(t *testing.T) {
	// The Table 1 photonic link: 64 λ at 10 Gbps over ~1 cm of waveguide
	// should come out near the quoted 0.703 pJ/bit when built from the
	// Table 2 devices.
	d := DefaultDevices()
	b := WDMLinkBudget(d, 64, 10, 1)
	total := b.TotalPJPerBit()
	if total < 0.55 || total > 0.85 {
		t.Fatalf("64-λ link budget %.3f pJ/bit, want ≈0.703 (components %+v)", total, b)
	}
}

func TestWDMLinkBudgetComponentsPositive(t *testing.T) {
	b := WDMLinkBudget(DefaultDevices(), 64, 10, 1)
	for name, v := range map[string]float64{
		"modulator": b.ModulatorPJ, "driver": b.DriverPJ, "thermal": b.ThermalPJ,
		"tia": b.TIAPJ, "serdes": b.SerDesPJ, "laser": b.LaserPJ,
	} {
		if v <= 0 {
			t.Errorf("%s component non-positive: %g", name, v)
		}
	}
}

func TestWDMLinkLaserShareGrowsWithWavelengths(t *testing.T) {
	// More wavelengths → more thru-port passes → exponentially more laser
	// power per wavelength.
	d := DefaultDevices()
	b16 := WDMLinkBudget(d, 16, 10, 1)
	b64 := WDMLinkBudget(d, 64, 10, 1)
	if b64.LaserPJ <= b16.LaserPJ {
		t.Fatalf("laser share did not grow: %g (64λ) vs %g (16λ)", b64.LaserPJ, b16.LaserPJ)
	}
	// Electrical-style components are per-λ constants.
	if math.Abs(b64.ModulatorPJ-b16.ModulatorPJ) > 1e-12 {
		t.Fatal("modulator energy should not depend on λ count")
	}
}

func TestElecLinkEnergyScalesWithLength(t *testing.T) {
	l := DefaultLink()
	ref := ElecLinkEnergyPJPerBit(l, 10, 10)
	if math.Abs(ref-1.17) > 1e-12 {
		t.Fatalf("reference-length energy %g, want 1.17", ref)
	}
	if e := ElecLinkEnergyPJPerBit(l, 20, 10); math.Abs(e-2.34) > 1e-12 {
		t.Fatalf("2× length should double energy, got %g", e)
	}
	if e := ElecLinkEnergyPJPerBit(l, 10, 0); math.Abs(e-11.7) > 1e-9 {
		t.Fatalf("zero reference must default sanely, got %g", e)
	}
}

func TestWDMLinkModulationRateTradeoff(t *testing.T) {
	// Doubling per-λ modulation rate halves the static per-bit shares.
	d := DefaultDevices()
	b10 := WDMLinkBudget(d, 64, 10, 1)
	b20 := WDMLinkBudget(d, 64, 20, 1)
	if math.Abs(b20.DriverPJ*2-b10.DriverPJ) > 1e-12 {
		t.Fatalf("driver energy not inversely proportional to rate: %g vs %g", b20.DriverPJ, b10.DriverPJ)
	}
}

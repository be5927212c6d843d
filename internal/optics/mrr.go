package optics

import (
	"fmt"
	"math"
)

// Microring resonator spectral model. The paper's scalability argument
// against MRR-heavy designs (Sec 6: crosstalk between MRRs and thermal
// stability "limit the scalability of these designs") is quantitative:
// every ring's Lorentzian drop response leaks neighbouring WDM channels,
// and the aggregate leakage grows with channel count. This file models the
// add-drop ring's thru/drop responses and the resulting WDM crosstalk so
// that trade-off is computable rather than asserted.

// MRR is an add-drop microring characterized by its resonance, loaded
// quality factor, on-resonance extinction and drop insertion loss.
type MRR struct {
	// ResonanceNM is the resonant wavelength in nanometres.
	ResonanceNM float64
	// Q is the loaded quality factor (FWHM = λ/Q).
	Q float64
	// ExtinctionDB is the on-resonance thru-port suppression (Table 2: 7 dB).
	ExtinctionDB float64
	// DropLossDB is the on-resonance drop-port insertion loss (Table 2: 1 dB).
	DropLossDB float64
}

// DefaultMRR returns a ring on the given channel wavelength with the
// Table 2 characteristics and a loaded Q of 10 000 (5 µm radius silicon
// ring).
func DefaultMRR(resonanceNM float64) MRR {
	return MRR{ResonanceNM: resonanceNM, Q: 10000, ExtinctionDB: 7, DropLossDB: 1}
}

// FWHMnm returns the resonance full width at half maximum in nanometres.
func (r MRR) FWHMnm() float64 { return r.ResonanceNM / r.Q }

// lorentzian returns the normalized Lorentzian response at detuning δ nm.
func (r MRR) lorentzian(detuneNM float64) float64 {
	x := 2 * detuneNM / r.FWHMnm()
	return 1 / (1 + x*x)
}

// DropPower returns the power fraction coupled to the drop port at the
// given wavelength: the Lorentzian peak scaled by the drop insertion loss.
func (r MRR) DropPower(lambdaNM float64) float64 {
	peak := math.Pow(10, -r.DropLossDB/10)
	return peak * r.lorentzian(lambdaNM-r.ResonanceNM)
}

// ThruPower returns the power fraction continuing on the thru port: full
// transmission far from resonance, suppressed to the extinction floor on
// resonance.
func (r MRR) ThruPower(lambdaNM float64) float64 {
	floor := math.Pow(10, -r.ExtinctionDB/10)
	return 1 - (1-floor)*r.lorentzian(lambdaNM-r.ResonanceNM)
}

// WDMDemux is a bank of drop rings separating `Channels` wavelengths at
// the given spacing, as at every Flumen/OptBus receiver.
type WDMDemux struct {
	Channels  int
	SpacingNM float64
	Rings     []MRR
}

// NewWDMDemux builds a demux with default rings centred at 1550 nm.
func NewWDMDemux(channels int, spacingNM float64) *WDMDemux {
	if channels < 1 || spacingNM <= 0 {
		panic(fmt.Sprintf("optics: invalid demux: %d channels at %g nm", channels, spacingNM))
	}
	d := &WDMDemux{Channels: channels, SpacingNM: spacingNM}
	base := 1550.0 - spacingNM*float64(channels-1)/2
	for i := 0; i < channels; i++ {
		d.Rings = append(d.Rings, DefaultMRR(base+spacingNM*float64(i)))
	}
	return d
}

// ChannelWavelength returns channel i's centre wavelength.
func (d *WDMDemux) ChannelWavelength(i int) float64 { return d.Rings[i].ResonanceNM }

// CrosstalkMatrix returns X[i][j]: the power fraction of channel j's
// signal that appears at drop output i. The diagonal is the wanted drop
// transmission; off-diagonal entries account for the thru-port attenuation
// of the rings between the input and ring i, then ring i's Lorentzian tail
// at channel j's wavelength.
func (d *WDMDemux) CrosstalkMatrix() [][]float64 {
	x := make([][]float64, d.Channels)
	// thru[j] is the power of channel j left after the thru ports of the
	// rings above the current one, multiplied in ring order.
	thru := make([]float64, d.Channels)
	for j := range thru {
		thru[j] = 1
	}
	for i := range x {
		x[i] = make([]float64, d.Channels)
		for j := range x[i] {
			lambda := d.ChannelWavelength(j)
			x[i][j] = thru[j] * d.Rings[i].DropPower(lambda)
			thru[j] *= d.Rings[i].ThruPower(lambda)
		}
	}
	return x
}

// aggregateCrosstalkDB returns the total unwanted power at drop output i
// of crosstalk matrix x relative to the wanted signal, in dB (more
// negative is better).
func aggregateCrosstalkDB(x [][]float64, i int) float64 {
	var unwanted float64
	for j := range x[i] {
		if j != i {
			unwanted += x[i][j]
		}
	}
	if unwanted == 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(unwanted/x[i][i])
}

// WorstAggregateCrosstalkDB returns the worst channel's aggregate
// crosstalk.
func (d *WDMDemux) WorstAggregateCrosstalkDB() float64 {
	x := d.CrosstalkMatrix()
	worst := math.Inf(-1)
	for i := range x {
		if c := aggregateCrosstalkDB(x, i); c > worst {
			worst = c
		}
	}
	return worst
}

// CrosstalkLimitedBits converts a crosstalk floor into the equivalent
// analog resolution it permits: treating aggregate crosstalk as a noise
// floor, SNR_xtalk = −crosstalkDB.
func CrosstalkLimitedBits(crosstalkDB float64) float64 {
	return EquivalentBits(-crosstalkDB)
}

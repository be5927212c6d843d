package optics

import "math"

// Receiver SNR model: Table 1 asserts the MZIM computation achieves
// "8-bit equivalent" analog precision. This file derives the achievable
// effective number of bits from the Table 2 device parameters — shot
// noise, dark current, laser relative intensity noise (RIN), and the TIA's
// input-referred thermal noise — so the quoted precision is a consequence
// of the physics rather than an assumption.

const (
	electronCharge = 1.602176634e-19 // C
	// Photodiode responsivity, A/W (InGaAs PIN, per the Table 2 device).
	responsivityAPerW = 1.0
	// TIA input-referred current noise density, A/√Hz (65 nm-class TIA).
	tiaNoiseAPerRtHz = 10e-12
)

// ReceiverSNRdB returns the electrical signal-to-noise ratio at the
// photodetector + TIA for the given received optical power and detection
// bandwidth, combining shot noise (signal and dark current), RIN, and
// thermal noise.
func ReceiverSNRdB(d DeviceParams, rxPowerDBm, bandwidthGHz float64) float64 {
	pw := DBmToMW(rxPowerDBm) * 1e-3 // W
	bw := bandwidthGHz * 1e9         // Hz
	i := responsivityAPerW * pw      // signal photocurrent, A

	shot := 2 * electronCharge * i * bw
	dark := 2 * electronCharge * (d.PDDarkCurrentPA * 1e-12) * bw
	rin := math.Pow(10, d.LaserRINdB/10) * i * i * bw
	thermal := tiaNoiseAPerRtHz * tiaNoiseAPerRtHz * bw

	noise := shot + dark + rin + thermal
	if noise <= 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(i*i/noise)
}

// EquivalentBits converts an SNR in dB to the effective number of bits of
// an ideal converter: ENOB = (SNR − 1.76) / 6.02.
func EquivalentBits(snrDB float64) float64 {
	return (snrDB - 1.76) / 6.02
}

// ComputePrecisionBits returns the equivalent analog precision of the
// Flumen compute path: detection at the compute input-modulation Nyquist
// bandwidth with the given received optical power. At the nominal compute
// operating point (≈ −4 dBm received, 2.5 GHz Nyquist bandwidth for the
// 5 GHz input modulation) the Table 2 devices support ≈ 7-8 bits — the
// paper's "8-bit equivalent" computation (Table 1).
func ComputePrecisionBits(d DeviceParams, rxPowerDBm float64, l LinkParams) float64 {
	nyquistGHz := l.InputModulationGHz / 2
	return EquivalentBits(ReceiverSNRdB(d, rxPowerDBm, nyquistGHz))
}

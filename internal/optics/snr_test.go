package optics

import (
	"math"
	"testing"
)

func TestReceiverSNRMonotoneInPower(t *testing.T) {
	d := DefaultDevices()
	prev := math.Inf(-1)
	for _, p := range []float64{-25, -20, -15, -10, -5} {
		snr := ReceiverSNRdB(d, p, 2.5)
		if snr <= prev {
			t.Fatalf("SNR not increasing with power at %g dBm: %g", p, snr)
		}
		prev = snr
	}
}

func TestReceiverSNRBoundedByRIN(t *testing.T) {
	// At very high received power, RIN dominates and the SNR saturates at
	// the RIN-limited ceiling.
	d := DefaultDevices()
	ceiling := -(d.LaserRINdB + 10*math.Log10(2.5e9)) // RIN alone over the 2.5 GHz band
	high := ReceiverSNRdB(d, +10, 2.5)
	if high > ceiling {
		t.Fatalf("SNR %g exceeds the RIN ceiling %g", high, ceiling)
	}
	if ceiling-high > 1 {
		t.Fatalf("high-power SNR %g should approach the RIN ceiling %g", high, ceiling)
	}
}

func TestComputePrecisionIsAbout8Bits(t *testing.T) {
	// Table 1's "equivalent precision: 8 bits" at the compute operating
	// point: −4 dBm received, 5 GHz input modulation (2.5 GHz Nyquist).
	d := DefaultDevices()
	l := DefaultLink()
	bits := ComputePrecisionBits(d, -4, l)
	if bits < 6.5 || bits > 9 {
		t.Fatalf("equivalent precision %.2f bits, expected ≈8 from the Table 2 devices", bits)
	}
}

func TestEquivalentBitsFormula(t *testing.T) {
	// A perfect 8-bit converter has SNR = 6.02·8 + 1.76 dB.
	if b := EquivalentBits(6.02*8 + 1.76); math.Abs(b-8) > 1e-12 {
		t.Fatalf("ENOB inversion broken: %g", b)
	}
}

func TestSNRDegradesWithBandwidth(t *testing.T) {
	// Wider detection bandwidth admits more noise: the 10 GHz comm path
	// has lower per-sample SNR than the 2.5 GHz compute path — one reason
	// communication uses simple OOK while computation needs the careful
	// analog chain.
	d := DefaultDevices()
	comm := ReceiverSNRdB(d, -10, 10)
	comp := ReceiverSNRdB(d, -10, 2.5)
	if comm >= comp {
		t.Fatalf("SNR at 10 GHz (%g) should be below 2.5 GHz (%g)", comm, comp)
	}
}

func TestSensitivityPointStillDetectable(t *testing.T) {
	// At the −20 dBm sensitivity the SNR must still support on-off keying
	// (a few dB), but not 8-bit analog resolution — which is why
	// communication can run at sensitivity while compute needs more
	// optical power.
	d := DefaultDevices()
	snr := ReceiverSNRdB(d, d.PDSensitivityDBm, 10)
	if snr < 3 {
		t.Fatalf("sensitivity-point SNR %g too low even for OOK", snr)
	}
	if EquivalentBits(snr) >= 8 {
		t.Fatalf("sensitivity-point precision %.1f bits implausibly high", EquivalentBits(snr))
	}
}

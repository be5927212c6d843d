package noc

import (
	"math"
	"testing"
)

// peakMZIMUtilization runs a 16-port, 256-bit MZIM under uniform traffic at
// the rates that bracket its saturation and returns the highest link
// utilization reached.
func peakMZIMUtilization(setup int64, lookahead int) float64 {
	peak := 0.0
	for _, rate := range []float64{0.15, 0.18, 0.2, 0.22, 0.25, 0.3} {
		net := NewMZIM(16, 256, setup)
		net.SetLookahead(lookahead)
		peak = math.Max(peak, RunSynthetic(net, Uniform(16), rate, DefaultRunConfig()).LinkUtilization)
	}
	return peak
}

// TestMZIMMeetsHeadOfLineBound holds the MZIM to a closed-form oracle. An
// input-queued crossbar whose inputs offer only their head packet saturates
// under uniform traffic at ≈ 0.60 of port capacity for N = 16, and at
// 2 − √2 ≈ 0.586 as N grows (Karol, Hluchyj and Morgan, IEEE Trans. Commun.
// 1987). With no setup cycles and a lookahead of 1, the wavefront matcher is
// that switch. A lookahead of 2 lifts the bound; the 3 setup cycles paid per
// grant that is not back to back then take 0.20 of it back (0.70 → 0.51),
// which is what holds the default MZIM near half its port capacity.
func TestMZIMMeetsHeadOfLineBound(t *testing.T) {
	hol, window, setup := peakMZIMUtilization(0, 1), peakMZIMUtilization(0, 2), peakMZIMUtilization(3, 2)
	t.Logf("peak link utilization: setup 0 lookahead 1 %.3f, setup 0 lookahead 2 %.3f, setup 3 lookahead 2 %.3f", hol, window, setup)
	if hol < 0.58 || hol > 0.62 {
		t.Errorf("setup 0, lookahead 1: peak %.3f, want Karol's ≈ 0.60 for N = 16 (in [0.58, 0.62])", hol)
	}
	if window < 0.68 {
		t.Errorf("setup 0, lookahead 2: peak %.3f, want ≥ 0.68", window)
	}
	if setup > 0.53 {
		t.Errorf("setup 3, lookahead 2: peak %.3f, want ≤ 0.53 (the setup cycles cost 0.20)", setup)
	}
}

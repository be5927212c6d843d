package optics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestDBConversionsRoundTrip(t *testing.T) {
	for _, db := range []float64{-30, -3, 0, 3, 10, 51.2} {
		if got := PowerRatioToDB(DBToPowerRatio(db)); math.Abs(got-db) > 1e-12 {
			t.Fatalf("dB roundtrip %g -> %g", db, got)
		}
	}
	if math.Abs(DBToPowerRatio(10)-10) > 1e-12 {
		t.Fatal("10 dB should be 10×")
	}
	if math.Abs(DBmToMW(0)-1) > 1e-12 {
		t.Fatal("0 dBm should be 1 mW")
	}
	if math.Abs(DBmToMW(-20)-0.01) > 1e-15 {
		t.Fatal("-20 dBm should be 0.01 mW")
	}
}

func TestDefaultDevicesMatchTable2(t *testing.T) {
	d := DefaultDevices()
	if d.WaveguideStraightLossDBcm != 1.5 || d.WaveguideBentLossDBcm != 3.8 {
		t.Fatal("waveguide losses wrong")
	}
	if d.MRRThruLossDB != 0.1 || d.MRRDropLossDB != 1 {
		t.Fatal("MRR losses wrong")
	}
	if d.MZIPhaseShifterLossDB != 0.23 || d.MZICouplerLossDB != 0.02 {
		t.Fatal("MZI losses wrong")
	}
	if math.Abs(d.MZIInsertionLossDB()-0.27) > 1e-12 {
		t.Fatalf("MZI insertion loss %g, want 0.27", d.MZIInsertionLossDB())
	}
	if d.LaserOWPE != 0.2 || d.ADCPowerMW != 29 || d.DACPowerMW != 50 {
		t.Fatal("laser/converter params wrong")
	}
}

func TestDefaultLinkMatchesTable1(t *testing.T) {
	l := DefaultLink()
	if l.ElecLinkEnergyPJPerBit != 1.17 || l.ElecLinkBandwidthGbps != 800 {
		t.Fatal("electrical link params wrong")
	}
	if l.PhotonicEnergyPJPerBit != 0.703 || l.Wavelengths != 64 {
		t.Fatal("photonic link params wrong")
	}
	// 16/32/64 λ ⇔ 160/320/640 Gbps (Sec 2.1).
	for _, tc := range []struct {
		lambdas int
		gbps    float64
	}{{16, 160}, {32, 320}, {64, 640}} {
		if got := float64(tc.lambdas) * l.ModulationGHz; math.Abs(got-tc.gbps) > 1e-9 {
			t.Fatalf("%d λ bandwidth %g, want %g", tc.lambdas, got, tc.gbps)
		}
	}
	if l.ComputeWavelengths != 8 || l.EquivalentPrecision != 8 || l.MZIMSwitchDelayNS != 6 {
		t.Fatal("compute params wrong")
	}
}

func TestLossBudgetAccumulates(t *testing.T) {
	var b LossBudget
	b.Add("a", 3, 0.5)
	b.Add("b", 1, 2)
	if math.Abs(b.TotalDB()-3.5) > 1e-12 {
		t.Fatalf("budget total %g", b.TotalDB())
	}
	if !strings.Contains(b.String(), "total") {
		t.Fatal("budget String missing total")
	}
}

func TestLossBudgetPanicsOnNegative(t *testing.T) {
	var b LossBudget
	defer func() {
		if recover() == nil {
			t.Fatal("negative loss accepted")
		}
	}()
	b.Add("bad", 1, -1)
}

func TestOptBusLossScalesWithKP(t *testing.T) {
	d := DefaultDevices()
	// Doubling wavelengths adds k·p·thru dB.
	l16 := OptBusWorstCaseLossDB(d, 16, 16, 1)
	l32 := OptBusWorstCaseLossDB(d, 16, 32, 1)
	if math.Abs((l32-l16)-16*16*d.MRRThruLossDB) > 1e-9 {
		t.Fatalf("OptBus loss delta %g", l32-l16)
	}
}

func TestFlumenLossScalesWithHalfKPlus2P(t *testing.T) {
	d := DefaultDevices()
	l16 := FlumenWorstCaseLossDB(d, 16, 16, 1)
	l32 := FlumenWorstCaseLossDB(d, 16, 32, 1)
	// Doubling p adds 2·Δp·thru = 2·16·0.1 dB.
	if math.Abs((l32-l16)-2*16*d.MRRThruLossDB) > 1e-9 {
		t.Fatalf("Flumen loss delta %g", l32-l16)
	}
	k16 := FlumenWorstCaseLossDB(d, 16, 16, 1)
	k32 := FlumenWorstCaseLossDB(d, 32, 16, 1)
	if math.Abs((k32-k16)-8*d.MZIInsertionLossDB()) > 1e-9 {
		t.Fatalf("Flumen k-scaling delta %g", k32-k16)
	}
}

func TestFlumenLaserFarBelowOptBus(t *testing.T) {
	// The headline of Fig 12(a): at 32 λ and 0.1 dB MRR thru loss the
	// Flumen laser is orders of magnitude below OptBus (paper: 75×).
	d := DefaultDevices()
	ob := OptBusLaserPowerMW(d, 16, 32, 1)
	fl := FlumenLaserPowerMW(d, 16, 32, 1)
	if fl >= ob {
		t.Fatalf("Flumen laser %g mW not below OptBus %g mW", fl, ob)
	}
	if ob/fl < 50 {
		t.Fatalf("laser power ratio %g, expected ≫ 50×", ob/fl)
	}
}

func TestLaserPowerMonotonicInLoss(t *testing.T) {
	d := DefaultDevices()
	prev := 0.0
	for _, loss := range []float64{0, 5, 10, 20} {
		p := LaserPowerMW(d, loss, 8)
		if p <= prev {
			t.Fatalf("laser power not monotonic at %g dB", loss)
		}
		prev = p
	}
}

func TestQuantizerBasics(t *testing.T) {
	q := NewQuantizer(8, 1)
	if q.Levels() != 256 {
		t.Fatalf("Levels = %d", q.Levels())
	}
	if q.Quantize(2) != 1 {
		t.Fatal("clipping high failed")
	}
	if q.Quantize(-2) != -1 {
		t.Fatal("clipping low failed")
	}
	if q.Quantize(0) != 0 {
		t.Fatal("zero not representable")
	}
	if math.Abs(q.Quantize(0.5)-0.5) > q.MaxError() {
		t.Fatal("mid value error exceeds half step")
	}
}

func TestQuantizerPanics(t *testing.T) {
	for _, bits := range []int{0, 25} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewQuantizer(%d, 1) accepted", bits)
				}
			}()
			NewQuantizer(bits, 1)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewQuantizer(8, 0) accepted")
			}
		}()
		NewQuantizer(8, 0)
	}()
}

func TestQuantizerErrorBound(t *testing.T) {
	q := NewQuantizer(8, 1)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := 2*rng.Float64() - 1
		return math.Abs(q.Quantize(x)-x) <= q.MaxError()+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuantizerIdempotent(t *testing.T) {
	q := NewQuantizer(8, 1)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := q.Quantize(2*rng.Float64() - 1)
		return q.Quantize(x) == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// refQuantize is the scalar converter written out element by element — step
// and largest code re-derived for each value, as QuantizeVec did before it
// hoisted both — kept here as its oracle.
func refQuantize(q Quantizer, x float64) float64 {
	max := float64(int(1)<<(q.Bits-1) - 1)
	step := q.FullScale / max
	k := math.Round(x / step)
	if k > max {
		k = max
	}
	if k < -max {
		k = -max
	}
	return k * step
}

// TestQuantizeVecMatchesScalarBitwise holds QuantizeVec (which derives the
// step once per vector) to the scalar converter bit for bit, on the
// values where a reordered or fused computation would show: NaN, ±Inf, −0,
// exact half-step ties, both clip edges, and a seeded sweep.
func TestQuantizeVecMatchesScalarBitwise(t *testing.T) {
	for _, bits := range []int{4, 8, 12} {
		for _, fullScale := range []float64{1, math.Sqrt(8)} {
			q := NewQuantizer(bits, fullScale)
			step := q.Step()
			xs := []float64{
				math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
				step / 2, -step / 2, 1.5 * step, -1.5 * step, 2.5 * step,
				fullScale, -fullScale, math.Nextafter(fullScale, 2*fullScale), -math.Nextafter(fullScale, 2*fullScale),
				fullScale - step/2, -(fullScale - step/2), 10 * fullScale, -10 * fullScale,
				math.SmallestNonzeroFloat64, math.MaxFloat64,
			}
			rng := rand.New(rand.NewSource(int64(bits)))
			for i := 0; i < 10000; i++ {
				xs = append(xs, 1.2*fullScale*(2*rng.Float64()-1))
			}
			want := make([]uint64, len(xs))
			for i, x := range xs {
				want[i] = math.Float64bits(refQuantize(q, x))
				if got := math.Float64bits(q.Quantize(x)); got != want[i] {
					t.Fatalf("%d bits: Quantize(%v) = %x, reference %x", bits, x, got, want[i])
				}
			}
			reals := q.QuantizeVec(append([]float64(nil), xs...))
			for i := range xs {
				if got := math.Float64bits(reals[i]); got != want[i] {
					t.Fatalf("%d bits: QuantizeVec(%v) = %x, scalar %x", bits, xs[i], got, want[i])
				}
			}
		}
	}
}

func TestNoiseModelDeterministicWhenNil(t *testing.T) {
	n := NoiseModel{RINSigma: 0.1, ThermalSigma: 0.1, FullScale: 1, Rng: nil}
	if n.Apply(0.5) != 0.5 {
		t.Fatal("nil-rng noise model modified value")
	}
}

func TestNoiseModelBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := DefaultNoise(1, rng)
	var worst float64
	for i := 0; i < 10000; i++ {
		d := math.Abs(n.Apply(0.5) - 0.5)
		if d > worst {
			worst = d
		}
	}
	// RIN ~2.2e-3 relative + thermal ~2e-3 absolute; 5 sigma bound.
	if worst > 0.05 {
		t.Fatalf("noise excursion %g implausibly large", worst)
	}
	if worst == 0 {
		t.Fatal("noise model injected nothing")
	}
}

// ElecLinkEnergyPJPerBit returns the Table 1 electrical NoP link energy
// (Poulton et al. GRS link), scaled linearly with link length relative to
// the reference on-package reach — the distance scaling Sec 1 cites as the
// fundamental problem for metallic NoP links.
func ElecLinkEnergyPJPerBit(l LinkParams, lengthMM, referenceMM float64) float64 {
	if referenceMM <= 0 {
		referenceMM = 1
	}
	return l.ElecLinkEnergyPJPerBit * lengthMM / referenceMM
}

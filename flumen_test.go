package flumen

import (
	"math"
	"reflect"
	"testing"

	"flumen/internal/workload"
)

func TestRegistries(t *testing.T) {
	if len(Benchmarks()) != 5 {
		t.Fatalf("benchmarks: %v", Benchmarks())
	}
	if len(Topologies()) != 5 {
		t.Fatalf("topologies: %v", Topologies())
	}
}

func TestRunBenchmarkValidatesNames(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := RunBenchmark("NoSuchBench", "Mesh", cfg); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := RunBenchmark("JPEG", "Torus", cfg); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

// scaled runs a reduced-size workload for fast tests.
func scaled(t *testing.T, name, topo string) Result {
	t.Helper()
	var w workload.Workload
	for _, cand := range workload.ScaledAll(4) {
		if cand.Name() == name {
			w = cand
		}
	}
	if w == nil {
		t.Fatalf("no scaled workload %q", name)
	}
	res, err := RunWorkload(w, topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestScaledBenchmarksCompleteOnAllTopologies(t *testing.T) {
	for _, b := range Benchmarks() {
		for _, topo := range Topologies() {
			res := scaled(t, b, topo)
			if res.Cycles <= 0 {
				t.Errorf("%s/%s: no cycles", b, topo)
			}
			if res.Energy.TotalPJ() <= 0 {
				t.Errorf("%s/%s: no energy", b, topo)
			}
			if res.EDPJouleSeconds <= 0 {
				t.Errorf("%s/%s: no EDP", b, topo)
			}
		}
	}
}

func TestFlumenAcceleratesAllBenchmarks(t *testing.T) {
	// The core claims of Figs 13-15, on scaled workloads: Flumen-A beats
	// the electrical mesh in runtime, energy and EDP on every benchmark.
	for _, b := range Benchmarks() {
		mesh := scaled(t, b, "Mesh")
		fa := scaled(t, b, "Flumen-A")
		if sp := fa.SpeedupOver(mesh); sp <= 1 {
			t.Errorf("%s: Flumen-A speedup over Mesh %.2f ≤ 1", b, sp)
		}
		if eg := fa.EnergyGainOver(mesh); eg <= 1 {
			t.Errorf("%s: Flumen-A energy gain over Mesh %.2f ≤ 1", b, eg)
		}
		if eg := fa.EDPGainOver(mesh); eg <= 1 {
			t.Errorf("%s: Flumen-A EDP gain over Mesh %.2f ≤ 1", b, eg)
		}
	}
}

func TestFlumenAReducesCoreEnergy(t *testing.T) {
	// Sec 5.4.1: moving computation into the interconnect cuts core energy
	// roughly in half or better.
	for _, b := range Benchmarks() {
		mesh := scaled(t, b, "Mesh")
		fa := scaled(t, b, "Flumen-A")
		if fa.Energy.CorePJ >= mesh.Energy.CorePJ {
			t.Errorf("%s: Flumen-A core energy %.0f not below Mesh %.0f",
				b, fa.Energy.CorePJ, mesh.Energy.CorePJ)
		}
	}
}

func TestFlumenIEnergySlightlyAboveOptBus(t *testing.T) {
	// Sec 5.2: Flumen-I ≈ OptBus, slightly higher due to DAC/ADC static
	// power.
	for _, b := range []string{"JPEG", "ImageBlur"} {
		ob := scaled(t, b, "OptBus")
		fi := scaled(t, b, "Flumen-I")
		if fi.Energy.NoPPJ <= ob.Energy.NoPPJ {
			t.Errorf("%s: Flumen-I NoP energy %.0f not above OptBus %.0f",
				b, fi.Energy.NoPPJ, ob.Energy.NoPPJ)
		}
		if fi.Energy.NoPPJ > 1.6*ob.Energy.NoPPJ {
			t.Errorf("%s: Flumen-I NoP energy %.0f too far above OptBus %.0f",
				b, fi.Energy.NoPPJ, ob.Energy.NoPPJ)
		}
	}
}

func TestMeshBeatsRingOnNetworkEnergy(t *testing.T) {
	// Sec 5.2: the electrical mesh has much lower network energy than the
	// ring.
	for _, b := range Benchmarks() {
		ring := scaled(t, b, "Ring")
		mesh := scaled(t, b, "Mesh")
		if mesh.Energy.NoPPJ >= ring.Energy.NoPPJ {
			t.Errorf("%s: Mesh NoP %.0f not below Ring %.0f", b, mesh.Energy.NoPPJ, ring.Energy.NoPPJ)
		}
	}
}

func TestOffloadGrantsHappen(t *testing.T) {
	res := scaled(t, "JPEG", "Flumen-A")
	if res.OffloadsGranted == 0 {
		t.Fatal("no offloads granted on Flumen-A")
	}
	if res.ComputePJ <= 0 {
		t.Fatal("no compute energy accumulated")
	}
	if res.MACsOnCores >= scaled(t, "JPEG", "Mesh").MACsOnCores {
		t.Fatal("offload did not reduce core MACs")
	}
}

func TestTagReuseShapesMatchPaper(t *testing.T) {
	// Sec 5.4.2: VGG16 FC has the lowest operand reuse; ResNet, JPEG,
	// rotation and blur reuse heavily.
	vgg := scaled(t, "VGG16FC", "Flumen-A")
	if vgg.TagReuses > vgg.Reprograms/10 {
		t.Errorf("VGG should have ~zero reuse: reuses=%d reprograms=%d", vgg.TagReuses, vgg.Reprograms)
	}
	jpeg := scaled(t, "JPEG", "Flumen-A")
	if jpeg.TagReuses < jpeg.Reprograms {
		t.Errorf("JPEG should reuse far more than it reprograms: reuses=%d reprograms=%d",
			jpeg.TagReuses, jpeg.Reprograms)
	}
}

// TestUtilizationTraceSampling holds Fig. 1's trace to one sample per
// window, fast-forwarded stretches included, adding up to the link-busy
// cycles at the last window boundary (measured by one window that covers
// them all); sampling moves nothing else in the result.
func TestUtilizationTraceSampling(t *testing.T) {
	run := func(window int64) Result {
		cfg := DefaultConfig()
		cfg.UtilWindow = window
		res, err := RunWorkload(workload.ScaledAll(4)[0], "Flumen-I", cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	const window = 200
	res := run(window)
	untraced := res
	untraced.UtilizationTrace = nil
	if unsampled := run(0); !reflect.DeepEqual(untraced, unsampled) {
		t.Fatalf("sampling moved the result:\n%+v\nwithout sampling:\n%+v", untraced, unsampled)
	}
	if want := res.Cycles / window; int64(len(res.UtilizationTrace)) != want {
		t.Fatalf("%d samples over %d cycles, want one per %d-cycle window: %d", len(res.UtilizationTrace), res.Cycles, window, want)
	}
	var sum float64
	for _, u := range res.UtilizationTrace {
		if u < 0 || u > 1 {
			t.Fatalf("trace sample %g out of range", u)
		}
		sum += u * window
	}
	last := res.Cycles / window * window
	whole := run(last).UtilizationTrace
	if len(whole) != 1 {
		t.Fatalf("%d samples of one %d-cycle window", len(whole), last)
	}
	if want := whole[0] * float64(last); math.Abs(sum-want) > 1e-9*want {
		t.Fatalf("samples add up to %.3f busy cycles a link, %.3f by cycle %d", sum, want, last)
	}
}

func TestLinkUtilizationIsLow(t *testing.T) {
	// Fig 1 / Sec 2.1: linear algebra applications leave the photonic
	// network mostly idle — average link utilization well below 25%.
	for _, b := range Benchmarks() {
		res := scaled(t, b, "Flumen-I")
		if res.AvgLinkUtilization > 0.25 {
			t.Errorf("%s: average link utilization %.1f%% too high for the paper's premise",
				b, 100*res.AvgLinkUtilization)
		}
	}
}

func TestResultHelperMath(t *testing.T) {
	a := Result{Seconds: 1, EDPJouleSeconds: 8, Energy: EnergyBreakdown{CorePJ: 100}}
	b := Result{Seconds: 2, EDPJouleSeconds: 16, Energy: EnergyBreakdown{CorePJ: 300}}
	if math.Abs(a.SpeedupOver(b)-2) > 1e-12 {
		t.Fatal("SpeedupOver wrong")
	}
	if math.Abs(a.EDPGainOver(b)-2) > 1e-12 {
		t.Fatal("EDPGainOver wrong")
	}
	if math.Abs(a.EnergyGainOver(b)-3) > 1e-12 {
		t.Fatal("EnergyGainOver wrong")
	}
}

func TestWavelengthProvisioningAffectsUtilization(t *testing.T) {
	// Fig 1 mechanism: quartering the WDM link bandwidth must raise
	// average link utilization substantially on a network-heavy workload.
	var w workload.Workload
	for _, cand := range workload.ScaledAll(4) {
		if cand.Name() == "VGG16FC" {
			w = cand
		}
	}
	cfg16 := DefaultConfig()
	cfg16.Wavelengths = 16
	cfg64 := DefaultConfig()
	cfg64.Wavelengths = 64
	r16, err := RunWorkload(w, "Flumen-I", cfg16)
	if err != nil {
		t.Fatal(err)
	}
	r64, err := RunWorkload(w, "Flumen-I", cfg64)
	if err != nil {
		t.Fatal(err)
	}
	if r16.AvgLinkUtilization < 1.5*r64.AvgLinkUtilization {
		t.Fatalf("16λ utilization %.3f not well above 64λ %.3f",
			r16.AvgLinkUtilization, r64.AvgLinkUtilization)
	}
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mut := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	bads := []Config{
		mut(func(c *Config) { c.Cores = 0 }),
		mut(func(c *Config) { c.Cores = 63 }),        // not divisible
		mut(func(c *Config) { c.Chiplets = 12 }),     // not a square (and cores not divisible)
		mut(func(c *Config) { c.ComputeBlock = 3 }),  // odd
		mut(func(c *Config) { c.ComputeBlock = 10 }), // > chiplets/2
		mut(func(c *Config) { c.ComputeLambdas = 0 }),
		mut(func(c *Config) { c.Tau = 0 }),
		mut(func(c *Config) { c.Eta = 1.5 }),
		mut(func(c *Config) { c.Zeta = 0 }),
		mut(func(c *Config) { c.MaxComputePorts = 2 }), // below block size
		mut(func(c *Config) { c.Wavelengths = -1 }),
	}
	for i, bad := range bads {
		if err := bad.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, bad)
		}
		if _, err := RunBenchmark("JPEG", "Mesh", bad); err == nil {
			t.Errorf("RunBenchmark accepted bad config %d", i)
		}
	}
}

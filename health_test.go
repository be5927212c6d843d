package flumen

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"flumen/internal/photonic"
)

// healthTestConfig probes after every item and quarantines on the first
// failing probe so tests converge in a handful of MatMul calls.
func healthTestConfig() HealthConfig {
	return HealthConfig{
		ProbeInterval:    1,
		SuspectThreshold: 0.02,
		QuarantineAfter:  1,
		RecalPasses:      8,
		MaxRecalAttempts: 3,
	}
}

func testMatrices(n int, seed int64) (m, x [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	m = make([][]float64, n)
	x = make([][]float64, n)
	for i := 0; i < n; i++ {
		m[i] = make([]float64, n)
		x[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			m[i][j] = rng.Float64()*2 - 1
			x[i][j] = rng.Float64()*2 - 1
		}
	}
	return m, x
}

// driveUntil runs MatMul calls until pred(stats) holds or the deadline
// passes, returning the last snapshot.
func driveUntil(t *testing.T, a *Accelerator, pred func(HealthStats) bool) HealthStats {
	t.Helper()
	m, x := testMatrices(32, 1)
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := a.MatMul(m, x); err != nil {
			t.Fatalf("MatMul: %v", err)
		}
		if st := a.HealthStats(); pred(st) {
			return st
		}
	}
	st := a.HealthStats()
	t.Fatalf("condition not reached before deadline; stats: %+v", st)
	return st
}

func TestHealthQuarantineAndRecoveryPoolMode(t *testing.T) {
	a, err := NewAccelerator(32, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.EnableHealthMonitor(healthTestConfig()); err != nil {
		t.Fatal(err)
	}
	if err := a.InjectFaults(0, photonic.FaultConfig{DriftSigma: 0.03, Seed: 7}); err != nil {
		t.Fatal(err)
	}

	st := driveUntil(t, a, func(st HealthStats) bool { return st.Quarantines >= 1 })
	if !st.Degraded() && st.Recalibrations == 0 {
		t.Fatalf("quarantined but neither degraded nor recovered: %+v", st)
	}

	// Background recalibration must eventually return the partition to
	// service (drift keeps accumulating, so it may be quarantined again
	// later — a lifetime recalibration counter is the stable signal).
	st = driveUntil(t, a, func(st HealthStats) bool { return st.Recalibrations >= 1 })
	if st.Probes == 0 || st.Partitions[0].Probes == 0 {
		t.Fatalf("no probes recorded: %+v", st)
	}
	if !st.Partitions[0].Faulty {
		t.Fatal("partition 0 not marked faulty")
	}
	for i := 1; i < len(st.Partitions); i++ {
		if st.Partitions[i].Probes != 0 || st.Partitions[i].State != HealthHealthy {
			t.Fatalf("pristine partition %d was probed or left healthy state: %+v", i, st.Partitions[i])
		}
	}
}

func TestHealthShrunkenPoolBitwiseIdentical(t *testing.T) {
	faulty, err := NewAccelerator(32, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := faulty.EnableHealthMonitor(healthTestConfig()); err != nil {
		t.Fatal(err)
	}
	if err := faulty.InjectFaults(0, photonic.FaultConfig{DriftSigma: 0.05, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	// Drive until the faulted partition is out of service and not yet
	// recovered, so the comparison call below runs on healthy hardware only.
	driveUntil(t, faulty, func(st HealthStats) bool {
		return st.Partitions[0].State == HealthQuarantined || st.Partitions[0].State == HealthRecalibrating
	})

	pristine, err := NewAccelerator(32, 8)
	if err != nil {
		t.Fatal(err)
	}
	m, x := testMatrices(24, 9)
	want, err := pristine.MatMul(m, x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := faulty.MatMul(m, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("shrunken-pool result differs at (%d,%d): %g vs %g", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestHealthMinHealthyFloor(t *testing.T) {
	a, err := NewAccelerator(16, 8) // 2 partitions
	if err != nil {
		t.Fatal(err)
	}
	cfg := healthTestConfig()
	cfg.MaxRecalAttempts = 1
	cfg.RecalPasses = 1 // recovery usually fails, pressuring the floor
	if err := a.EnableHealthMonitor(cfg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := a.InjectFaults(i, photonic.FaultConfig{DriftSigma: 0.08, Seed: int64(20 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	m, x := testMatrices(32, 2)
	for round := 0; round < 40; round++ {
		if _, err := a.MatMul(m, x); err != nil {
			t.Fatalf("MatMul with floor active: %v", err)
		}
		if st := a.HealthStats(); st.InService < 1 {
			t.Fatalf("InService dropped below MinHealthy: %+v", st)
		}
	}
	st := a.HealthStats()
	if st.Quarantines == 0 {
		t.Fatalf("no quarantine despite heavy drift on both partitions: %+v", st)
	}
}

func TestHealthGuards(t *testing.T) {
	a, err := NewAccelerator(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st := a.HealthStats(); st.Enabled {
		t.Fatal("health reported enabled before EnableHealthMonitor")
	}
	if err := a.EnableHealthMonitor(HealthConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := a.EnableHealthMonitor(HealthConfig{}); err == nil {
		t.Fatal("double EnableHealthMonitor accepted")
	}
	if err := a.InjectFaults(99, photonic.FaultConfig{}); err == nil {
		t.Fatal("out-of-range InjectFaults accepted")
	}
}

// TestHealthMonitorHoldsAccuracyUnderDrift is the accuracy claim of the
// health monitor: two of eight partitions drift (σ = 0.02 per item), then
// the fault source abates. With nobody watching, the accumulated phase
// error stays and a 64×64·16 product is wrong by more than 10× the healthy
// quantisation error; under the monitor the partitions are quarantined and
// recalibrated, and the error returns to within 2× of healthy.
func TestHealthMonitorHoldsAccuracyUnderDrift(t *testing.T) {
	const ports, block, faulted, sigma = 64, 8, 2, 0.02
	rng := rand.New(rand.NewSource(41))
	m, x := randMatrix(rng, 64, 64), randMatrix(rng, 64, 16)
	// maxErr is the max element error of one MatMul against the float64 product.
	maxErr := func(a *Accelerator) float64 {
		got, err := a.MatMul(m, x)
		if err != nil {
			t.Fatalf("MatMul: %v", err)
		}
		worst := 0.0
		for i := range m {
			for j := range x[0] {
				want := 0.0
				for k := range x {
					want += m[i][k] * x[k][j]
				}
				worst = math.Max(worst, math.Abs(got[i][j]-want))
			}
		}
		return worst
	}
	inject := func(a *Accelerator) {
		for i := 0; i < faulted; i++ {
			if err := a.InjectFaults(i, photonic.FaultConfig{DriftSigma: sigma, Seed: int64(100 + i)}); err != nil {
				t.Fatal(err)
			}
		}
	}

	baseline := maxErr(newEngineAccel(t, ports, block))

	unmon := newEngineAccel(t, ports, block)
	inject(unmon)
	for i := 0; i < 40; i++ {
		maxErr(unmon)
	}
	for i := 0; i < faulted; i++ {
		unmon.FaultInjector(i).SetDriftSigma(0)
	}
	if got := maxErr(unmon); got < 10*baseline {
		t.Fatalf("unmonitored error %.4f under 10× healthy %.4f: fault injection too weak", got, baseline)
	}

	mon := newEngineAccel(t, ports, block)
	// A recalibrated partition is exact on the probe matrix only, and which
	// blocks of the product land on it is up to the scheduler, so the bound
	// has to hold for the worst block: 24 sweeps leave a residual that read
	// at most 1.6× over 250 runs, 8 sweeps one that passes 2× now and then.
	cfg := healthTestConfig()
	cfg.RecalPasses = 24
	if err := mon.EnableHealthMonitor(cfg); err != nil {
		t.Fatal(err)
	}
	inject(mon)
	// The drift walk is seeded and advances per item, so a partition's state
	// at its first quarantine is the same on every run. Freezing it there,
	// while it is parked and runs nothing, makes the state the monitor has to
	// repair independent of how fast recalibration is on this host.
	driveUntil(t, mon, func(st HealthStats) bool {
		frozen := 0
		for i := 0; i < faulted; i++ {
			if st.Partitions[i].Quarantines > 0 {
				mon.FaultInjector(i).SetDriftSigma(0)
				frozen++
			}
		}
		return frozen == faulted
	})
	// Settled: nothing out of service, and no drifted partition back in
	// service with a failing last probe.
	st := driveUntil(t, mon, func(st HealthStats) bool {
		if st.Degraded() {
			return false
		}
		for _, p := range st.Partitions {
			if p.Faulty && p.LastProbeError > st.ProbeThreshold {
				return false
			}
		}
		return true
	})
	if st.Quarantines == 0 || st.Recalibrations == 0 {
		t.Fatalf("monitor never cycled: %+v", st)
	}
	if got := maxErr(mon); got > 2*baseline {
		t.Fatalf("monitored error %.4f exceeds 2× healthy %.4f (stats %+v)", got, baseline, st)
	}
}

// FaultInjector returns the injector InjectFaults attached to partition
// part, or nil. The injector is safe for concurrent use, so a test may
// drive it directly — e.g. SetDriftSigma(0) to model a transient fault
// source abating.
func (a *Accelerator) FaultInjector(part int) *photonic.FaultInjector {
	return a.injectorFor(part)
}

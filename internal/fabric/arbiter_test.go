package fabric

import "testing"

// testConfig keeps windows and hysteresis small so tests drive the state
// machine in a handful of ticks.
func testConfig() Config {
	return Config{
		Partitions:        2,
		Nodes:             4,
		IdleWindow:        8,
		IdleThreshold:     0.05,
		BusyThreshold:     0.1,
		OccupancyPatience: 8,
		MinIdleCycles:     16,
		ReclaimBudget:     100,
	}
}

func mustNew(t *testing.T, cfg Config) *Arbiter {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// mustAcquire takes a lease that the arbiter must grant.
func mustAcquire(t *testing.T, a *Arbiter) *Lease {
	t.Helper()
	l, ok := a.TryAcquire()
	if !ok {
		t.Fatalf("TryAcquire refused in mode %v", a.Stats().Mode)
	}
	return l
}

// tickIdle feeds n cycles of zero telemetry starting at cycle from.
func tickIdle(a *Arbiter, from int64, n int) int64 {
	for i := 0; i < n; i++ {
		a.Tick(from, 0, 0)
		from++
	}
	return from
}

// tickBusy feeds n cycles of saturating telemetry.
func tickBusy(a *Arbiter, from int64, n int) int64 {
	for i := 0; i < n; i++ {
		a.Tick(from, 4, 4)
		from++
	}
	return from
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Partitions: 0, Nodes: 4}); err == nil {
		t.Error("accepted zero partitions")
	}
	if _, err := New(Config{Partitions: 2, Nodes: 0}); err == nil {
		t.Error("accepted zero nodes")
	}
	if _, err := New(Config{Partitions: 2, Nodes: 4, IdleThreshold: 0.5, BusyThreshold: 0.1}); err == nil {
		t.Error("accepted inverted hysteresis band")
	}
}

func TestLeaseLifecycle(t *testing.T) {
	a := mustNew(t, testConfig())
	if got := a.Stats().Mode; got != ModeIdle {
		t.Fatalf("initial mode %v, want idle", got)
	}

	l1 := mustAcquire(t, a)
	if got := a.Stats().Mode; got != ModeCompute {
		t.Fatalf("mode after first grant %v, want compute-leased", got)
	}
	l2 := mustAcquire(t, a)
	if l1.Partition() == l2.Partition() {
		t.Fatalf("both leases granted partition %d", l1.Partition())
	}

	// No partitions left: the next grant is refused.
	if l, ok := a.TryAcquire(); ok {
		t.Fatalf("exhausted pool granted partition %d", l.Partition())
	}

	l1.Release()
	l1.Release() // idempotent
	l3 := mustAcquire(t, a)
	if l3.Partition() != l1.Partition() {
		t.Fatalf("re-grant gave partition %d, want freed %d", l3.Partition(), l1.Partition())
	}
	l2.Release()
	l3.Release()
	if got := a.Stats().Mode; got != ModeIdle {
		t.Fatalf("mode after all releases %v, want idle", got)
	}

	st := a.Stats()
	if st.LeasesGranted != 3 || st.ActiveLeases != 0 || st.FreePartitions != 2 {
		t.Fatalf("stats after lifecycle: %+v", st)
	}
}

func TestStateMachineFullCycle(t *testing.T) {
	a := mustNew(t, testConfig())
	l := mustAcquire(t, a)
	if l.Preempted() {
		t.Fatal("fresh lease reports preemption")
	}

	// Traffic arrives: compute-leased → reclaiming, lease preempted.
	cycle := tickBusy(a, 0, 3)
	if got := a.Stats().Mode; got != ModeReclaiming {
		t.Fatalf("mode under traffic with a lease out: %v, want reclaiming", got)
	}
	if !l.Preempted() {
		t.Fatal("lease not preempted in reclaiming mode")
	}

	// Grants are refused while reclaiming.
	if _, ok := a.TryAcquire(); ok {
		t.Fatal("TryAcquire granted during reclaim")
	}

	// Returning the last lease completes the reclaim.
	l.Release()
	if got := a.Stats().Mode; got != ModeTraffic {
		t.Fatalf("mode after reclaim completes: %v, want traffic", got)
	}
	st := a.Stats()
	if st.LeasesPreempted != 1 || st.LeasesReclaimed != 1 {
		t.Fatalf("preemption counters: %+v", st)
	}
	if st.LastReclaimCycles < 0 || st.MaxReclaimCycles != st.LastReclaimCycles {
		t.Fatalf("reclaim latency accounting: %+v", st)
	}

	// Idleness must persist MinIdleCycles before compute returns (plus the
	// sliding window draining the busy samples first). Until then every
	// grant is refused.
	idleTicks := 0
	for ; idleTicks < 1000 && a.Stats().Mode != ModeIdle; idleTicks++ {
		if _, ok := a.TryAcquire(); ok {
			t.Fatalf("TryAcquire granted in traffic mode after %d idle cycles", idleTicks)
		}
		a.Tick(cycle, 0, 0)
		cycle++
	}
	if got := a.Stats().Mode; got != ModeIdle {
		t.Fatalf("mode after %d zero-load cycles: %v, want idle", idleTicks, got)
	}
	if idleTicks < testConfig().MinIdleCycles {
		t.Fatalf("fabric handed back after only %d idle cycles, hysteresis is %d",
			idleTicks, testConfig().MinIdleCycles)
	}
	mustAcquire(t, a)
	if a.Stats().ModeTransitions < 4 {
		t.Fatalf("transitions %d, want the full idle→compute→reclaiming→traffic→idle walk", a.Stats().ModeTransitions)
	}
}

func TestIdleToTrafficDirect(t *testing.T) {
	a := mustNew(t, testConfig())
	tickBusy(a, 0, 2)
	if got := a.Stats().Mode; got != ModeTraffic {
		t.Fatalf("busy telemetry with no leases: mode %v, want traffic (no reclaim detour)", got)
	}
	if a.Stats().LeasesPreempted != 0 {
		t.Fatal("phantom preemption with no leases outstanding")
	}
}

func TestOccupancyAlonAssertsBusy(t *testing.T) {
	cfg := testConfig()
	a := mustNew(t, cfg)
	// Injection stopped, but packets are stuck in endpoint buffers (e.g.
	// destined to withdrawn ports): after OccupancyPatience cycles the
	// arbiter must reclaim anyway.
	for i := 0; i < cfg.OccupancyPatience+1; i++ {
		a.Tick(int64(i), 0, 3)
	}
	if got := a.Stats().Mode; got != ModeTraffic {
		t.Fatalf("sustained occupancy: mode %v, want traffic", got)
	}
}

// TestAcquireUnblocksWhenFabricReturns: a caller refused while traffic owns
// the fabric is granted once the idle detector hands it back, and not
// before.
func TestAcquireUnblocksWhenFabricReturns(t *testing.T) {
	cfg := testConfig()
	a := mustNew(t, cfg)
	cycle := tickBusy(a, 0, 2) // → traffic
	if _, ok := a.TryAcquire(); ok {
		t.Fatal("TryAcquire granted while the fabric was in traffic mode")
	}
	tickIdle(a, cycle, cfg.IdleWindow+cfg.MinIdleCycles+8)
	mustAcquire(t, a).Release()
}

func TestReclaimSLOViolationCountedOnce(t *testing.T) {
	cfg := testConfig()
	a := mustNew(t, cfg)
	mustAcquire(t, a)
	cycle := tickBusy(a, 0, 1) // → reclaiming; lease never released
	tickBusy(a, cycle, cfg.ReclaimBudget+50)
	st := a.Stats()
	if st.ReclaimSLOViolations != 1 {
		t.Fatalf("SLO violations %d, want exactly 1 for one overrunning reclaim", st.ReclaimSLOViolations)
	}
	if st.ComputeCyclesStolen == 0 {
		t.Fatal("no compute cycles counted as stolen during reclaim")
	}
}

func TestTryAcquire(t *testing.T) {
	cases := []struct {
		name  string
		setup func(t *testing.T, a *Arbiter) // drives the arbiter into the state under test
		grant bool
		mode  Mode // mode after the attempt
	}{
		{"idle", func(*testing.T, *Arbiter) {}, true, ModeCompute},
		{"compute", func(t *testing.T, a *Arbiter) { mustAcquire(t, a) }, true, ModeCompute},
		{"traffic", func(_ *testing.T, a *Arbiter) { tickBusy(a, 0, 2) }, false, ModeTraffic},
		{"reclaiming", func(t *testing.T, a *Arbiter) {
			mustAcquire(t, a)
			tickBusy(a, 0, 2)
		}, false, ModeReclaiming},
		{"all held", func(t *testing.T, a *Arbiter) {
			for i := 0; i < a.Stats().Partitions; i++ {
				mustAcquire(t, a)
			}
		}, false, ModeCompute},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := mustNew(t, testConfig())
			tc.setup(t, a)
			before := a.Stats()
			l, ok := a.TryAcquire()
			if ok != tc.grant || (l != nil) != tc.grant {
				t.Fatalf("TryAcquire = (%v, %v), want grant %v", l, ok, tc.grant)
			}
			after := a.Stats()
			if got := after.Mode; got != tc.mode {
				t.Fatalf("mode after TryAcquire %v, want %v", got, tc.mode)
			}
			if !tc.grant {
				if after.LeasesGranted != before.LeasesGranted || after.ActiveLeases != before.ActiveLeases {
					t.Fatalf("refused TryAcquire changed lease state: %+v → %+v", before, after)
				}
				return
			}
			if after.ActiveLeases != before.ActiveLeases+1 || after.FreePartitions != before.FreePartitions-1 {
				t.Fatalf("granted lease %d not accounted: %+v", l.Partition(), after)
			}
			l.Release()
		})
	}
}

func TestNotePreemptedItems(t *testing.T) {
	a := mustNew(t, testConfig())
	l := mustAcquire(t, a)
	if st := a.Stats(); st.ActiveLeases != 1 || st.FreePartitions != 1 {
		t.Fatalf("one lease out, stats %+v", st)
	}
	a.NotePreemptedItems(3)
	a.NotePreemptedItems(2)
	if got := a.Stats().PreemptedItems; got != 5 {
		t.Fatalf("PreemptedItems = %d, want 5", got)
	}
	l.Release()
	if st := a.Stats(); st.ActiveLeases != 0 || st.FreePartitions != 2 {
		t.Fatalf("after release, stats %+v", st)
	}
}

package fabricrun

import (
	"reflect"
	"runtime"
	"testing"

	"flumen/internal/fabric"
)

func shortOpts() Options {
	return Options{
		Ports: 32, Block: 8, Nodes: 8,
		Rate:    0.05,
		Warmup:  500,
		Measure: 1500,
		Drain:   8000,
		Seed:    7,
	}
}

func TestBaselineRunDelivers(t *testing.T) {
	res, err := Run(shortOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated || !res.SteadyState {
		t.Fatalf("baseline at low load saturated: %+v", res)
	}
	if res.Delivered == 0 || res.AvgLatency <= 0 {
		t.Fatalf("baseline measured nothing: %+v", res)
	}
	if res.Fabric != nil || res.ComputeOps != 0 {
		t.Fatalf("baseline run grew fabric state: %+v", res)
	}
}

// stepOpts is shortOpts with a fabric attached and the offered load held
// at zero until cycle 200, then stepped to 0.2 packets/node/cycle.
func stepOpts() Options {
	o := shortOpts()
	o.Fabric = &fabric.Config{
		IdleWindow:    16,
		MinIdleCycles: 32,
		ReclaimBudget: 5000,
	}
	o.StepAt = 200
	o.Rate = 0.2
	return o
}

// TestBaselineRunGolden pins the network-only Result for shortOpts, recorded
// before the harness became a single-goroutine loop: the packet-generation
// RNG draws, and so every latency, must not move.
func TestBaselineRunGolden(t *testing.T) {
	res, err := Run(shortOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := Result{
		AvgLatency:    6.83112582781457,
		P50Latency:    6,
		P99Latency:    18,
		MaxLatency:    27,
		Delivered:     604,
		ElapsedCycles: 2009,
		SteadyState:   true,
	}
	if *res != want {
		t.Fatalf("baseline moved:\n got %+v\nwant %+v", *res, want)
	}
}

// checkGolden compares a whole Result with want, the arbiter snapshot field
// by field.
func checkGolden(t *testing.T, o Options, want Result, wantFabric *fabric.Stats) {
	t.Helper()
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	got := *res
	got.Fabric = nil
	if got != want {
		t.Errorf("result moved:\n got %+v\nwant %+v", got, want)
	}
	switch {
	case (res.Fabric == nil) != (wantFabric == nil):
		t.Errorf("fabric stats %+v, want %+v", res.Fabric, wantFabric)
	case wantFabric != nil && *res.Fabric != *wantFabric:
		t.Errorf("fabric stats moved:\n got %+v\nwant %+v", *res.Fabric, *wantFabric)
	}
}

// TestStepRunGolden pins the network-only Result with the load held at zero
// until cycle 200, recorded before the harness ran on noc.RunSynthetic: no
// generation draw before the step.
func TestStepRunGolden(t *testing.T) {
	o := shortOpts()
	o.StepAt = 200
	checkGolden(t, o, Result{
		AvgLatency:    6.908485856905158,
		P50Latency:    6,
		P99Latency:    18,
		MaxLatency:    27,
		Delivered:     601,
		ElapsedCycles: 2004,
		SteadyState:   true,
	}, nil)
}

// TestMixedRunGolden pins mixed Results, arbiter snapshot included, recorded
// before the harness ran on noc.RunSynthetic: the step scenario, and
// compute under constant load with the default fabric configuration.
func TestMixedRunGolden(t *testing.T) {
	t.Run("step", func(t *testing.T) {
		checkGolden(t, stepOpts(), Result{
			AvgLatency:    187.55079100749376,
			P50Latency:    180,
			P99Latency:    481,
			MaxLatency:    507,
			Delivered:     2402,
			ElapsedCycles: 2404,
			ComputeOps:    12,
			SteadyState:   true,
		}, &fabric.Stats{
			Mode:                fabric.ModeTraffic,
			Cycle:               2403,
			Partitions:          4,
			FreePartitions:      4,
			ModeTransitions:     7,
			LeasesGranted:       12,
			LeasesPreempted:     4,
			LeasesReclaimed:     4,
			ComputeCyclesStolen: 8804,
			LastReclaimCycles:   34,
			MaxReclaimCycles:    34,
		})
	})
	t.Run("constant", func(t *testing.T) {
		o := shortOpts()
		o.Fabric = &fabric.Config{}
		checkGolden(t, o, Result{
			AvgLatency:    6.83112582781457,
			P50Latency:    6,
			P99Latency:    18,
			MaxLatency:    27,
			Delivered:     604,
			ElapsedCycles: 2009,
			SteadyState:   true,
		}, &fabric.Stats{
			Mode:                fabric.ModeTraffic,
			Cycle:               2008,
			Partitions:          4,
			FreePartitions:      4,
			ModeTransitions:     3,
			LeasesGranted:       4,
			LeasesPreempted:     4,
			LeasesReclaimed:     4,
			PreemptedItems:      60,
			ComputeCyclesStolen: 8032,
			LastReclaimCycles:   16,
			MaxReclaimCycles:    16,
			InjectionRate:       0.060546875,
		})
	})
}

func TestMixedRunReclaimsAndComputes(t *testing.T) {
	o := stepOpts()
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fabric == nil {
		t.Fatal("mixed run returned no fabric stats")
	}
	if res.LeakedLeases != 0 {
		t.Fatalf("%d leases leaked", res.LeakedLeases)
	}
	if res.ComputeOps == 0 {
		t.Fatal("pump completed no compute during the idle window")
	}
	if res.Fabric.LeasesPreempted == 0 || res.Fabric.LeasesReclaimed == 0 {
		t.Fatalf("step did not force a reclaim: %+v", res.Fabric)
	}
	if res.Fabric.MaxReclaimCycles > int64(o.Fabric.ReclaimBudget) {
		t.Fatalf("reclaim took %d cycles, budget %d", res.Fabric.MaxReclaimCycles, o.Fabric.ReclaimBudget)
	}
	if !res.SteadyState {
		t.Fatalf("mixed run did not drain: %+v", res)
	}
}

// TestMixedRunDeterministic: a mixed Result, arbiter snapshot included, is
// a function of the Options — the same across runs and across GOMAXPROCS.
func TestMixedRunDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var runs []*Result
	for _, procs := range []int{1, 2, 2} {
		runtime.GOMAXPROCS(procs)
		res, err := Run(stepOpts())
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, res)
	}
	for i, res := range runs[1:] {
		if !reflect.DeepEqual(runs[0], res) {
			t.Fatalf("run %d differs:\n got %+v %+v\nwant %+v %+v", i+1, res, res.Fabric, runs[0], runs[0].Fabric)
		}
	}
	if runs[0].ComputeOps == 0 || runs[0].Fabric.LeasesPreempted == 0 {
		t.Fatalf("deterministic run exercised no compute or reclaim: %+v %+v", runs[0], runs[0].Fabric)
	}
}

// TestMixedRunPreemptsAtItemBoundary steps the load while every lease is
// streaming block items, and checks the fabric came back at the next item
// boundary: within one item's cycles, with the unfinished items re-queued.
func TestMixedRunPreemptsAtItemBoundary(t *testing.T) {
	o := stepOpts()
	// Before the step no traffic interrupts compute, so every partition
	// runs whole MatMuls back to back, all granted in the same cycles. Step
	// the load as the fourth MatMul starts streaming its items.
	dim := 4 * o.Block
	job := costs.ComputeProgramCycles + costs.OccupancyCycles(jobItems, dim, dim*dim*8, true)
	o.StepAt = 3*job + costs.ComputeProgramCycles
	item := costs.OccupancyCycles(1, dim, 0, true)

	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	fs := res.Fabric
	if fs.LeasesPreempted == 0 || fs.PreemptedItems == 0 {
		t.Fatalf("step did not preempt leases mid-job: %+v", fs)
	}
	if fs.MaxReclaimCycles <= 0 || fs.MaxReclaimCycles > item {
		t.Fatalf("reclaim took %d cycles, want 1..%d (one item)", fs.MaxReclaimCycles, item)
	}
	if fs.ReclaimSLOViolations != 0 || res.LeakedLeases != 0 {
		t.Fatalf("reclaim violated its budget or leaked: %+v", fs)
	}
}

func TestMixedRunBadGeometry(t *testing.T) {
	o := shortOpts()
	o.Nodes = 2 // 4 partitions cannot map onto 2 ports
	o.Fabric = &fabric.Config{}
	if _, err := Run(o); err == nil {
		t.Fatal("accepted more partitions than NoP ports")
	}
}

func TestRunRejectsStepPastGeneration(t *testing.T) {
	o := shortOpts()
	o.StepAt = o.Warmup + o.Measure + 1 // the load would step after generation ends
	if _, err := Run(o); err == nil {
		t.Fatal("accepted a StepAt past Warmup+Measure")
	}
	o.StepAt--
	if _, err := Run(o); err != nil {
		t.Fatalf("StepAt at the end of generation: %v", err)
	}
}

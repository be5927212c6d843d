package fabricrun

import (
	"testing"

	"flumen/internal/fabric"
	"flumen/internal/noc"
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

func TestMixedRunReclaimsAndComputes(t *testing.T) {
	o := shortOpts()
	o.Fabric = &fabric.Config{
		IdleWindow:    16,
		MinIdleCycles: 32,
		ReclaimBudget: 5000,
	}
	o.Compute = true
	o.StepAt = 200 // idle until 200, then 0.05 packets/node/cycle
	o.Rate = 0.2
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

func TestMixedRunBadGeometry(t *testing.T) {
	o := shortOpts()
	o.Nodes = 2 // 4 partitions cannot map onto 2 ports
	o.Fabric = &fabric.Config{}
	if _, err := Run(o); err == nil {
		t.Fatal("accepted more partitions than NoP ports")
	}
}

func TestApplyPortWithdrawal(t *testing.T) {
	net := noc.NewMZIM(4, 64, 2)
	ApplyPortWithdrawal(net, []int{1, 3}, 4)
	// Withdrawn source port cannot be granted: a packet queued at port 1
	// stays queued while port 0 flows.
	net.Inject(&noc.Packet{ID: 0, Src: 1, Dst: 2, Bits: 64}, 0)
	net.Inject(&noc.Packet{ID: 1, Src: 0, Dst: 2, Bits: 64}, 0)
	for c := int64(0); c < 20; c++ {
		net.Step(c)
	}
	occ := net.BufferOccupancy(nil)
	if occ[1] != 1 {
		t.Fatalf("withdrawn port 1 drained its packet: occupancy %v", occ)
	}
	if occ[0] != 0 {
		t.Fatalf("available port 0 did not drain: occupancy %v", occ)
	}
	// Restoring the port lets the stuck packet through.
	ApplyPortWithdrawal(net, nil, 4)
	for c := int64(20); c < 40; c++ {
		net.Step(c)
	}
	if occ := net.BufferOccupancy(nil); occ[1] != 0 {
		t.Fatalf("restored port 1 still stuck: occupancy %v", occ)
	}
}

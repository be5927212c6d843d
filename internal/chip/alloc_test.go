package chip_test

import (
	"testing"

	"flumen/internal/chip"
	"flumen/internal/core"
	"flumen/internal/energy"
	"flumen/internal/noc"
	"flumen/internal/workload"
)

// newSuiteSystem builds the system the full-system suite runs w on, ready
// to Run: the cores run the digital op streams on the electrical networks
// and offload to the control unit on Flumen-A.
func newSuiteSystem(w workload.Workload, kind core.TopologyKind) *chip.System {
	cfg := chip.DefaultConfig()
	net := core.BuildNetwork(kind, core.DefaultNetworkParams())
	sys := chip.NewSystem(cfg, net)
	var streams []chip.Stream
	if kind == core.TopoFlumenA {
		sp := core.DefaultSchedulerParams()
		core.NewControlUnit(sys, net.(*noc.MZIMNet), sp, energy.Default())
		streams = w.OffloadStreams(cfg.Cores, 8, sp.ComputeLambdas)
	} else {
		streams = w.DigitalStreams(cfg.Cores)
	}
	for i, st := range streams {
		sys.SetStream(i, st)
	}
	return sys
}

// TestRunAllocations bounds what System.Run allocates once NewSystem has
// built the caches, on ResNet50-Conv3 at half size: packets and line
// transactions are reused, so what is left grows with the most work in
// flight at once and with the control unit's requests, not with every
// packet delivered (the closure-per-step chain allocated 4.8 a packet on
// the mesh, 5.6 on Flumen-A).
func TestRunAllocations(t *testing.T) {
	ceiling := 0.4 // allocations per delivered packet
	if raceEnabled {
		ceiling = 0.6
	}
	var w workload.Workload
	for _, cand := range workload.ScaledAll(2) {
		if cand.Name() == "ResNet50Conv3" {
			w = cand
		}
	}
	for _, kind := range []core.TopologyKind{core.TopoMesh, core.TopoFlumenA} {
		t.Run(kind.String(), func(t *testing.T) {
			// AllocsPerRun calls the function once to warm up and once to
			// measure; each call runs a system of its own.
			systems := []*chip.System{newSuiteSystem(w, kind), newSuiteSystem(w, kind)}
			var st chip.Stats
			allocs := testing.AllocsPerRun(1, func() {
				st = systems[0].Run()
				systems = systems[1:]
			})
			pkts := float64(st.Net.DeliveredPackets)
			if pkts < 5000 {
				t.Fatalf("only %.0f packets delivered in %d cycles", pkts, st.Cycles)
			}
			if allocs > ceiling*pkts {
				t.Fatalf("%.0f allocations for %.0f delivered packets (%.3f each, ceiling %.1f)", allocs, pkts, allocs/pkts, ceiling)
			}
			t.Logf("%.0f allocations for %.0f delivered packets (%.3f each)", allocs, pkts, allocs/pkts)
		})
	}
}

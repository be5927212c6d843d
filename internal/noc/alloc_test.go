package noc

import (
	"math/rand"
	"testing"
)

// TestStepAllocationFree holds every network's Step to no allocation once
// its queues have seen their working depth: 2 000 loaded cycles first, then
// rounds of fresh load followed by Inject-free steps that carry the
// queued packets through grants, hops and deliveries.
func TestStepAllocationFree(t *testing.T) {
	for _, g := range goldenNets {
		t.Run(g.name, func(t *testing.T) {
			net := g.mk()
			net.SetSink(func(*Packet, int64) {})
			rng := rand.New(rand.NewSource(1))
			pat := Uniform(net.Nodes())
			var cycle, id int64
			load := func(cycles int) {
				for end := cycle + int64(cycles); cycle < end; cycle++ {
					for s := 0; s < net.Nodes(); s++ {
						if rng.Float64() < 0.15 {
							net.Inject(&Packet{ID: id, Src: s, Dst: pat.Dest(s, rng), Bits: 640}, cycle)
							id++
						}
					}
					net.Step(cycle)
				}
			}
			load(2000)
			for round := 0; round < 10; round++ {
				load(100)
				before := net.Counters().DeliveredPackets
				if avg := testing.AllocsPerRun(50, func() { net.Step(cycle); cycle++ }); avg != 0 {
					t.Fatalf("round %d: %v allocations per Inject-free Step", round, avg)
				}
				if net.Counters().DeliveredPackets == before {
					t.Fatalf("round %d: the measured steps delivered nothing", round)
				}
			}
		})
	}
}

// TestRunSyntheticAllocations bounds what a whole run allocates by what it
// must: the packets in flight at once (a delivered packet is reused for a
// later one, and a source queue holds IDs and destinations, not packets),
// plus the bookkeeping slices and the network itself. None of it grows
// with the packets generated, so the bound holds at saturation too, where
// the source queues back up.
func TestRunSyntheticAllocations(t *testing.T) {
	type run struct {
		name      string
		mk        func() Network
		rate      float64
		saturated bool
	}
	var runs []run
	for _, g := range goldenNets {
		runs = append(runs, run{g.name, g.mk, 0.1, false})
	}
	runs = append(runs, run{"RingSaturated", goldenNets[0].mk, 0.3, true})
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			var res RunResult
			allocs := testing.AllocsPerRun(1, func() { res = RunSynthetic(r.mk(), Uniform(16), r.rate, DefaultRunConfig()) })
			if res.ElapsedCycles < 12000 || res.Saturated != r.saturated {
				t.Fatalf("unexpected run: %d cycles, saturated %v", res.ElapsedCycles, res.Saturated)
			}
			pkts := float64(res.Counters.InjectedPackets)
			if allocs > 0.05*pkts {
				t.Fatalf("%.0f allocations for %.0f packets (%.3f each, ceiling 0.05)", allocs, pkts, allocs/pkts)
			}
			t.Logf("%.0f allocations for %.0f packets (%.3f each)", allocs, pkts, allocs/pkts)
		})
	}
}

package noc

import (
	"math/rand"
	"testing"
)

// deliverAll drives a network until all injected packets are delivered or
// the cycle budget runs out, returning the delivered packets.
func deliverAll(t *testing.T, net Network, pkts []*Packet, budget int64) []*Packet {
	t.Helper()
	var delivered []*Packet
	net.SetSink(func(p *Packet, _ int64) { delivered = append(delivered, p) })
	pending := append([]*Packet(nil), pkts...)
	for cycle := int64(0); cycle < budget; cycle++ {
		rest := pending[:0]
		for _, p := range pending {
			if !net.Inject(p, cycle) {
				rest = append(rest, p)
			}
		}
		pending = rest
		net.Step(cycle)
		if len(delivered) == len(pkts) && len(pending) == 0 {
			return delivered
		}
	}
	t.Fatalf("%s: delivered %d of %d packets within %d cycles", net.Name(), len(delivered), len(pkts), budget)
	return nil
}

func TestRingDeliversSinglePacket(t *testing.T) {
	net := NewRing(16, 560, 4)
	p := &Packet{ID: 1, Src: 0, Dst: 8, Bits: 640}
	got := deliverAll(t, net, []*Packet{p}, 1000)
	if got[0].Dst != 8 {
		t.Fatalf("wrong destination %d", got[0].Dst)
	}
	// 8 hops × (2 ser + 1 router) ≈ 24 cycles; sanity bounds.
	lat := got[0].RecvCycle - got[0].InjectCycle
	if lat < 8 || lat > 100 {
		t.Fatalf("ring latency %d cycles implausible", lat)
	}
}

func TestRingShortestDirection(t *testing.T) {
	net := NewRing(16, 560, 4)
	// 0 -> 15 should go counter-clockwise: 1 hop, much faster than 15 hops.
	p := &Packet{ID: 1, Src: 0, Dst: 15, Bits: 640}
	got := deliverAll(t, net, []*Packet{p}, 1000)
	lat := got[0].RecvCycle - got[0].InjectCycle
	if lat > 15 {
		t.Fatalf("0→15 took %d cycles; shortest-direction routing broken", lat)
	}
}

func TestMeshDeliversAllPairs(t *testing.T) {
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			if src == dst {
				continue
			}
			net := NewMesh(4, 4, 320, 4)
			p := &Packet{ID: 1, Src: src, Dst: dst, Bits: 640}
			got := deliverAll(t, net, []*Packet{p}, 1000)
			if got[0].Dst != dst {
				t.Fatalf("%d→%d misdelivered", src, dst)
			}
		}
	}
}

func TestMeshXYLatencyScalesWithDistance(t *testing.T) {
	lat := func(src, dst int) int64 {
		net := NewMesh(4, 4, 320, 4)
		p := &Packet{ID: 1, Src: src, Dst: dst, Bits: 640}
		got := deliverAll(t, net, []*Packet{p}, 1000)
		return got[0].RecvCycle - got[0].InjectCycle
	}
	near := lat(0, 1) // 1 hop
	far := lat(0, 15) // 6 hops
	if far <= near {
		t.Fatalf("6-hop latency %d not above 1-hop latency %d", far, near)
	}
}

func TestElecSelfDelivery(t *testing.T) {
	net := NewMesh(4, 4, 320, 4)
	p := &Packet{ID: 1, Src: 5, Dst: 5, Bits: 640}
	deliverAll(t, net, []*Packet{p}, 100)
}

func TestRingManyPacketsNoDeadlock(t *testing.T) {
	// All-to-all burst through a small-buffer ring exercises the bubble
	// rule; with plain VCT this pattern can deadlock.
	rng := rand.New(rand.NewSource(1))
	net := NewRing(16, 560, 2)
	var pkts []*Packet
	id := int64(0)
	for s := 0; s < 16; s++ {
		for k := 0; k < 20; k++ {
			d := rng.Intn(15)
			if d >= s {
				d++
			}
			pkts = append(pkts, &Packet{ID: id, Src: s, Dst: d, Bits: 640})
			id++
		}
	}
	deliverAll(t, net, pkts, 100000)
}

func TestMeshBurstNoLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewMesh(4, 4, 320, 2)
	var pkts []*Packet
	for i := 0; i < 200; i++ {
		s := rng.Intn(16)
		d := rng.Intn(15)
		if d >= s {
			d++
		}
		pkts = append(pkts, &Packet{ID: int64(i), Src: s, Dst: d, Bits: 640})
	}
	got := deliverAll(t, net, pkts, 100000)
	if len(got) != 200 {
		t.Fatalf("delivered %d of 200", len(got))
	}
}

func TestOptBusDelivers(t *testing.T) {
	net := NewOptBus(16, 8, 256)
	p := &Packet{ID: 1, Src: 3, Dst: 12, Bits: 640}
	got := deliverAll(t, net, []*Packet{p}, 100)
	lat := got[0].RecvCycle - got[0].InjectCycle
	// ser=3 + prop=2: low single-digit latency, no hops.
	if lat > 10 {
		t.Fatalf("OptBus latency %d", lat)
	}
}

func TestOptBusChannelContention(t *testing.T) {
	// One channel: transmissions serialize.
	net := NewOptBus(4, 1, 256)
	var pkts []*Packet
	for s := 0; s < 4; s++ {
		pkts = append(pkts, &Packet{ID: int64(s), Src: s, Dst: (s + 1) % 4, Bits: 2560})
	}
	got := deliverAll(t, net, pkts, 1000)
	var last int64
	for _, p := range got {
		if p.RecvCycle > last {
			last = p.RecvCycle
		}
	}
	// 4 packets × 10 ser cycles each must take ≥ 40 cycles on one channel.
	if last < 40 {
		t.Fatalf("single channel finished at %d, contention not modelled", last)
	}
}

func TestOptBusMulticastDeliversToAll(t *testing.T) {
	net := NewOptBus(8, 4, 256)
	p := &Packet{ID: 1, Src: 0, Multicast: []int{2, 4, 6}, Bits: 640}
	var delivered []*Packet
	net.SetSink(func(q *Packet, _ int64) { delivered = append(delivered, q) })
	if !net.Inject(p, 0) {
		t.Fatal("inject failed")
	}
	for c := int64(0); c < 100; c++ {
		net.Step(c)
	}
	if len(delivered) != 3 {
		t.Fatalf("multicast delivered %d copies, want 3", len(delivered))
	}
}

func TestMZIMDelivers(t *testing.T) {
	net := NewMZIM(16, 256, 3)
	p := &Packet{ID: 1, Src: 2, Dst: 9, Bits: 640}
	got := deliverAll(t, net, []*Packet{p}, 100)
	lat := got[0].RecvCycle - got[0].InjectCycle
	// setup 3 + ser 3 = 6ish.
	if lat > 12 {
		t.Fatalf("MZIM latency %d", lat)
	}
	if net.Counters().Reconfigurations != 1 {
		t.Fatalf("reconfigurations = %d", net.Counters().Reconfigurations)
	}
}

func TestMZIMNonBlockingParallelTransfers(t *testing.T) {
	// A permutation should transfer fully in parallel: total time close to
	// a single transfer.
	net := NewMZIM(16, 256, 3)
	var pkts []*Packet
	for s := 0; s < 16; s++ {
		pkts = append(pkts, &Packet{ID: int64(s), Src: s, Dst: (s + 5) % 16, Bits: 640})
	}
	got := deliverAll(t, net, pkts, 100)
	var last int64
	for _, p := range got {
		if p.RecvCycle > last {
			last = p.RecvCycle
		}
	}
	if last > 15 {
		t.Fatalf("permutation finished at cycle %d; crossbar not parallel", last)
	}
}

func TestMZIMBroadcast(t *testing.T) {
	net := NewMZIM(8, 256, 3)
	dsts := []int{1, 2, 3, 4, 5, 6, 7}
	p := &Packet{ID: 1, Src: 0, Multicast: dsts, Bits: 640}
	var delivered []*Packet
	net.SetSink(func(q *Packet, _ int64) { delivered = append(delivered, q) })
	if !net.Inject(p, 0) {
		t.Fatal("inject failed")
	}
	for c := int64(0); c < 50; c++ {
		net.Step(c)
	}
	if len(delivered) != len(dsts) {
		t.Fatalf("broadcast delivered %d, want %d", len(delivered), len(dsts))
	}
	// Physical multicast: one reconfiguration, one transmission.
	if net.Counters().Reconfigurations != 1 {
		t.Fatalf("broadcast used %d reconfigurations", net.Counters().Reconfigurations)
	}
}

func TestMZIMPortWithdrawal(t *testing.T) {
	net := NewMZIM(8, 256, 3)
	net.SetPortAvailable(5, false)
	p := &Packet{ID: 1, Src: 2, Dst: 5, Bits: 640}
	var delivered int
	net.SetSink(func(*Packet, int64) { delivered++ })
	net.Inject(p, 0)
	for c := int64(0); c < 200; c++ {
		net.Step(c)
	}
	if delivered != 0 {
		t.Fatal("packet delivered to withdrawn port")
	}
	net.SetPortAvailable(5, true)
	for c := int64(200); c < 300; c++ {
		net.Step(c)
	}
	if delivered != 1 {
		t.Fatal("packet not delivered after port restore")
	}
}

func TestMZIMBufferOccupancy(t *testing.T) {
	net := NewMZIM(4, 256, 3)
	for i := 0; i < 3; i++ {
		net.Inject(&Packet{ID: int64(i), Src: 1, Dst: 2, Bits: 640}, 0)
	}
	occ := net.BufferOccupancy(nil)
	if occ[1] != 3 {
		t.Fatalf("occupancy %v", occ)
	}
	if net.BufferCapacity() <= 0 {
		t.Fatal("capacity must be positive")
	}
}

func TestTrafficPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	u := Uniform(16)
	for i := 0; i < 100; i++ {
		d := u.Dest(5, rng)
		if d == 5 || d < 0 || d >= 16 {
			t.Fatalf("uniform produced %d", d)
		}
	}
	br := BitReversal(16)
	if br.Dest(1, nil) != 8 { // 0001 -> 1000
		t.Fatalf("bitrev(1) = %d", br.Dest(1, nil))
	}
	if br.Dest(3, nil) != 12 { // 0011 -> 1100
		t.Fatalf("bitrev(3) = %d", br.Dest(3, nil))
	}
	sh := Shuffle(16)
	if sh.Dest(1, nil) != 2 {
		t.Fatalf("shuffle(1) = %d", sh.Dest(1, nil))
	}
	if sh.Dest(8, nil) != 1 { // 1000 -> 0001
		t.Fatalf("shuffle(8) = %d", sh.Dest(8, nil))
	}
}

func TestTrafficPatternPanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BitReversal(12) accepted")
		}
	}()
	BitReversal(12)
}

func TestRunSyntheticLowLoadLatency(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.MeasureCycles = 3000
	for _, mk := range []func() Network{
		func() Network { return NewRing(16, 560, 4) },
		func() Network { return NewMesh(4, 4, 320, 4) },
		func() Network { return NewOptBus(16, 8, 256) },
		func() Network { return NewMZIM(16, 256, 3) },
	} {
		res := RunSynthetic(mk(), Uniform(16), 0.002, cfg)
		if res.Saturated {
			t.Fatalf("%s saturated at near-zero load", res.Topology)
		}
		if res.AvgLatency <= 0 || res.AvgLatency > 100 {
			t.Fatalf("%s zero-load latency %g implausible", res.Topology, res.AvgLatency)
		}
	}
}

func TestRunSyntheticSaturatesAtHighLoad(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.MeasureCycles = 3000
	cfg.DrainCycles = 3000
	res := RunSynthetic(NewOptBus(16, 1, 256), Uniform(16), 0.4, cfg)
	if !res.Saturated {
		t.Fatal("one-channel bus did not saturate at 0.4 packets/node/cycle")
	}
}

func TestMZIMLowestZeroLoadLatencyAmongTopologies(t *testing.T) {
	// Fig 11: Flumen has the lowest average latency at low loads.
	cfg := DefaultRunConfig()
	cfg.MeasureCycles = 5000
	lat := map[string]float64{}
	for _, mk := range []func() Network{
		func() Network { return NewRing(16, 560, 4) },
		func() Network { return NewMesh(4, 4, 320, 4) },
		func() Network { return NewMZIM(16, 256, 3) },
	} {
		res := RunSynthetic(mk(), Uniform(16), 0.005, cfg)
		lat[res.Topology] = res.AvgLatency
	}
	if lat["Flumen"] >= lat["Ring"] || lat["Flumen"] >= lat["Mesh"] {
		t.Fatalf("Flumen latency %g not lowest (ring %g, mesh %g)",
			lat["Flumen"], lat["Ring"], lat["Mesh"])
	}
}

func TestLoadSweepStopsAfterSaturation(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.WarmupCycles = 500
	cfg.MeasureCycles = 2000
	cfg.DrainCycles = 2000
	rates := []float64{0.001, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5}
	res := LoadSweep(func() Network { return NewOptBus(16, 1, 256) }, Uniform(16), rates, cfg)
	if len(res) == len(rates) {
		t.Fatal("sweep never detected saturation on a one-channel bus")
	}
	last := res[len(res)-1]
	if !last.Saturated {
		t.Fatal("sweep should end with saturated points")
	}
}

func TestCountersTrackEnergyEvents(t *testing.T) {
	net := NewMesh(4, 4, 320, 4)
	p := &Packet{ID: 1, Src: 0, Dst: 15, Bits: 640}
	deliverAll(t, net, []*Packet{p}, 1000)
	c := net.Counters()
	// 6 hops × 640 bits.
	if c.BitHops != 6*640 {
		t.Fatalf("BitHops = %d, want %d", c.BitHops, 6*640)
	}
	mz := NewMZIM(16, 256, 3)
	deliverAll(t, mz, []*Packet{{ID: 2, Src: 0, Dst: 15, Bits: 640}}, 1000)
	if mz.Counters().PhotonicBits != 640 {
		t.Fatalf("PhotonicBits = %d", mz.Counters().PhotonicBits)
	}
}

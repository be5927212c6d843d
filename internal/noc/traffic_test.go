package noc

import (
	"math/rand"
	"testing"
)

func TestTransposePattern(t *testing.T) {
	p := Transpose(16)
	// src 0b0001 → 0b0100.
	if d := p.Dest(1, nil); d != 4 {
		t.Fatalf("transpose(1) = %d, want 4", d)
	}
	if d := p.Dest(6, nil); d != 9 { // 0110 → 1001
		t.Fatalf("transpose(6) = %d, want 9", d)
	}
	// Transpose is an involution.
	for s := 0; s < 16; s++ {
		if p.Dest(p.Dest(s, nil), nil) != s {
			t.Fatalf("transpose not an involution at %d", s)
		}
	}
}

func TestTransposeRejectsOddBitCounts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Transpose(8) accepted")
		}
	}()
	Transpose(8)
}

func TestTornadoAndNeighbor(t *testing.T) {
	tor := Tornado(16)
	if d := tor.Dest(0, nil); d != 7 {
		t.Fatalf("tornado(0) = %d, want 7", d)
	}
	nb := Neighbor(16)
	if d := nb.Dest(15, nil); d != 0 {
		t.Fatalf("neighbor(15) = %d, want 0", d)
	}
}

func TestHotspotConcentratesTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := Hotspot(16, 5, 0.5)
	hits := 0
	const trials = 4000
	for i := 0; i < trials; i++ {
		src := rng.Intn(16)
		if src == 5 {
			continue
		}
		if p.Dest(src, rng) == 5 {
			hits++
		}
	}
	frac := float64(hits) / trials
	if frac < 0.40 || frac > 0.60 {
		t.Fatalf("hotspot fraction %.2f, want ≈0.5", frac)
	}
}

func TestHotspotValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { Hotspot(16, 16, 0.5) },
		func() { Hotspot(16, -1, 0.5) },
		func() { Hotspot(16, 0, 1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid hotspot accepted")
				}
			}()
			bad()
		}()
	}
}

func TestAllPatternsProduceValidDestinations(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, p := range AllPatterns(16) {
		for s := 0; s < 16; s++ {
			for trial := 0; trial < 10; trial++ {
				d := p.Dest(s, rng)
				if d < 0 || d >= 16 {
					t.Fatalf("%s(%d) = %d out of range", p.Name, s, d)
				}
			}
		}
	}
}

func TestTornadoIsWorstCaseForRing(t *testing.T) {
	// The tornado pattern drives every packet halfway around the ring,
	// saturating it far earlier than nearest-neighbor traffic.
	cfg := DefaultRunConfig()
	cfg.MeasureCycles = 3000
	cfg.DrainCycles = 4000
	rate := 0.12
	tornado := RunSynthetic(NewRing(16, 560, 4), Tornado(16), rate, cfg)
	neighbor := RunSynthetic(NewRing(16, 560, 4), Neighbor(16), rate, cfg)
	if neighbor.Saturated {
		t.Fatal("nearest-neighbor saturated a ring at modest load")
	}
	if !tornado.Saturated && tornado.AvgLatency < 2*neighbor.AvgLatency {
		t.Fatalf("tornado (%.1f cyc) not clearly worse than neighbor (%.1f cyc) on a ring",
			tornado.AvgLatency, neighbor.AvgLatency)
	}
}

func TestChattyPairsSkewMZIMBuffers(t *testing.T) {
	// The Sec 3.4 observation behind the scan depth ζ: "a small number of
	// buffers in the MZIM control unit had significantly higher
	// utilization than others" — high traffic activity among a few node
	// pairs. Two chatty sources hammer one destination each while the
	// rest stay nearly idle; their endpoint buffers must run much fuller
	// than the average, which a global utilization metric would wash out.
	net := NewMZIM(16, 256, 3)
	rng := rand.New(rand.NewSource(3))
	var cycle int64
	for cycle = 0; cycle < 600; cycle++ {
		for s := 0; s < 16; s++ {
			rate := 0.005
			dst := Uniform(16).Dest(s, rng)
			if s == 2 || s == 7 {
				rate = 0.6
				dst = 3 // both chatty sources contend for one receiver
			}
			if rng.Float64() < rate {
				net.Inject(&Packet{Src: s, Dst: dst, Bits: 640}, cycle)
			}
		}
		net.Step(cycle)
	}
	occ := net.BufferOccupancy(nil)
	sum := 0
	for _, o := range occ {
		sum += o
	}
	mean := float64(sum) / float64(len(occ))
	if float64(occ[2]) < 3*mean || float64(occ[7]) < 3*mean {
		t.Fatalf("chatty buffers not skewed: occ[2]=%d occ[7]=%d mean=%.2f (all %v)",
			occ[2], occ[7], mean, occ)
	}
}

package noc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"testing"
)

// The goldens below pin simulated statistics and the delivery order bit for
// bit inside tier-1 (the benchmark's sim_digests.json needs a full-size
// run). They were recorded at the commit before the occupancy-tracked
// routers and the mask-based arbiter and must never be re-recorded by a
// change that claims to keep the model: find the moved packet instead.

// tapNet hashes every delivery (cycle, packet identity, stamps) on its way
// to the sink RunSynthetic installs, so that a reordering inside a cycle
// moves the digest even when every counter agrees.
type tapNet struct {
	Network
	h hash.Hash
}

func (t *tapNet) SetSink(f func(*Packet, int64)) {
	t.Network.SetSink(func(p *Packet, now int64) {
		fmt.Fprintf(t.h, "%d %d %d %d %d %d %d\n", now, p.ID, p.Src, p.Dst, p.InjectCycle, p.RecvCycle, len(p.Multicast))
		f(p, now)
	})
}

func goldenConfig(seed int64) RunConfig {
	cfg := DefaultRunConfig()
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 200, 1000, 3000
	cfg.Seed = seed
	return cfg
}

// goldenRun folds one run's result and delivery trace into h.
func goldenRun(t *testing.T, h hash.Hash, net Network, pat Pattern, rate float64, cfg RunConfig) RunResult {
	t.Helper()
	res := RunSynthetic(&tapNet{Network: net, h: h}, pat, rate, cfg)
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(raw)
	return res
}

func checkGolden(t *testing.T, h hash.Hash, want string) {
	t.Helper()
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("simulated statistics moved: digest %s, recorded %s", got, want)
	}
}

var goldenNets = []struct {
	name string
	mk   func() Network
	want string
}{
	{"Ring", func() Network { return NewRing(16, 560, 4) }, "1011c484657012b32cc3b40e17bdb7705611ac19e4d37fa51d3c9d30c20e3d38"},
	{"Mesh", func() Network { return NewMesh(4, 4, 320, 4) }, "5db2cd768f1c0bbe0b5a0a711c289438646bc92b87fc2d56d37feb633f491e59"},
	{"OptBus", func() Network { return NewOptBus(16, 8, 256) }, "1f7ed76a1cd4358959174e2d1e840e1eb28a907743676f5ecede17a31a27ca9f"},
	{"Flumen", func() Network { return NewMZIM(16, 256, 3) }, "e300bd9ed92c07ad9fe8b89e8b7fb330e74d6b1efc3b412f7bd99cbc419048e7"},
}

func TestRunSyntheticGolden(t *testing.T) {
	for _, g := range goldenNets {
		t.Run(g.name, func(t *testing.T) {
			h := sha256.New()
			pats := []Pattern{Uniform(16), BitReversal(16), Hotspot(16, 5, 0.3)}
			for _, pat := range pats {
				for _, rate := range []float64{0.02, 0.15, 0.4} {
					for seed := int64(1); seed <= 3; seed++ {
						goldenRun(t, h, g.mk(), pat, rate, goldenConfig(seed))
					}
				}
			}
			checkGolden(t, h, g.want)
		})
	}
}

// multicastMix returns an OnCycle hook that, every period cycles, offers a
// multicast from a rotating source to fan other nodes beside the unicast
// stream RunSynthetic generates. Its packets carry negative IDs: they are
// delivered and counted but never measured.
func multicastMix(period int64, fan int) func(int64, Network) {
	return func(now int64, net Network) {
		if now%period != 0 {
			return
		}
		n := net.Nodes()
		src := int(now/period) % n
		dsts := make([]int, fan)
		for i := range dsts {
			dsts[i] = (src + 1 + 3*i) % n
		}
		net.Inject(&Packet{ID: -1 - now, Src: src, Multicast: dsts, Bits: 640}, now)
	}
}

func TestRunSyntheticGoldenMulticast(t *testing.T) {
	for _, g := range []struct {
		name string
		mk   func() Network
		want string
	}{
		{"OptBus", goldenNets[2].mk, "4dda92e8958cfdbf44595a423af6a3fd67954f88737293c8ec1e64c33ddf6e6c"},
		{"Flumen", goldenNets[3].mk, "e6150b6354ded51895b27925a83a07993fbf177bae30c509d89411f4b92fec62"},
	} {
		t.Run(g.name, func(t *testing.T) {
			h := sha256.New()
			var delivered int64
			for _, rate := range []float64{0.02, 0.15} {
				for seed := int64(1); seed <= 3; seed++ {
					cfg := goldenConfig(seed)
					cfg.OnCycle = multicastMix(5, 4)
					res := goldenRun(t, h, g.mk(), Uniform(16), rate, cfg)
					delivered += res.DeliveredPkts - res.Counters.InjectedPackets
				}
			}
			if delivered <= 0 {
				t.Fatal("no multicast copy was delivered: the mix is not exercising the multicast path")
			}
			checkGolden(t, h, g.want)
		})
	}
}

// shapeNets are the shapes the four goldens above do not reach, recorded
// before the want-sets: an odd ring (no destination is equidistant both
// ways) with two-packet buffers, so the bubble rule binds; a 2×3 mesh,
// whose routers have two and three incoming links; a bus whose 3 channels
// do not divide its 16 nodes; and a 5-node bus with more channels than
// nodes, offered multicasts beside its unicasts.
var shapeNets = []struct {
	name string
	mk   func() Network
	mix  func(int64, Network)
	want string
}{
	{"Ring5", func() Network { return NewRing(5, 560, 2) }, nil, "0ac070b07d8477eb92ce0e32e7024a78bfd69d17307596f25a3bb6560711f54e"},
	{"Mesh2x3", func() Network { return NewMesh(2, 3, 320, 4) }, nil, "684a205a3db239cb315952a512f384b612565b2aa07512c5ba2c65e3f4160a79"},
	{"OptBus16x3", func() Network { return NewOptBus(16, 3, 256) }, nil, "9ae7241253403e2ebe8f81100a162e3c694cef5562015fef8d33fb40f62e2d60"},
	{"OptBus5x8", func() Network { return NewOptBus(5, 8, 256) }, multicastMix(5, 3), "0dc05534dd86a2a2148f462b55f7b7e57a3d08c8f617f6e553f47d81e874a25d"},
}

func TestRunSyntheticGoldenShapes(t *testing.T) {
	for _, g := range shapeNets {
		t.Run(g.name, func(t *testing.T) {
			h := sha256.New()
			n := g.mk().Nodes()
			for _, pat := range []Pattern{Uniform(n), Tornado(n), Hotspot(n, n/2, 0.3)} {
				for _, rate := range []float64{0.02, 0.15, 0.4} {
					for seed := int64(1); seed <= 3; seed++ {
						cfg := goldenConfig(seed)
						cfg.OnCycle = g.mix
						goldenRun(t, h, g.mk(), pat, rate, cfg)
					}
				}
			}
			checkGolden(t, h, g.want)
		})
	}
}

// TestRunSyntheticGoldenWithdrawal toggles MZIM ports in and out of the
// communication pool while traffic (unicast and multicast) is in the
// network, as a compute partition does when it takes and returns them.
func TestRunSyntheticGoldenWithdrawal(t *testing.T) {
	h := sha256.New()
	for _, rate := range []float64{0.05, 0.2} {
		for seed := int64(1); seed <= 3; seed++ {
			m := NewMZIM(16, 256, 3)
			m.SetLookahead(int(seed)) // depths 1 (pure FIFO), 2 (default), 3
			mix := multicastMix(11, 3)
			cfg := goldenConfig(seed)
			cfg.OnCycle = func(now int64, net Network) {
				mix(now, net)
				// Ports 2–5 leave for 150 cycles out of every 400, port 9
				// for 40 out of every 100; all are back for the drain.
				away := now < 1200 && now%400 >= 250
				for port := 2; port <= 5; port++ {
					m.SetPortAvailable(port, !away)
				}
				m.SetPortAvailable(9, !(now < 1200 && now%100 >= 60))
				if now%50 == 0 {
					inj, queued := m.CycleTelemetry()
					fmt.Fprintf(h, "t %d %d %d\n", now, inj, queued)
				}
			}
			goldenRun(t, h, m, Hotspot(16, 3, 0.2), rate, cfg)
		}
	}
	checkGolden(t, h, "e9e1489ee16a9cd77c98612aab8f7ee781a8cb14c2676f1d93798712a0877456")
}

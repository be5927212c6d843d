package noc

import (
	"math/rand"
	"slices"
	"testing"
)

// wantShapes are the golden shapes whose grant passes walk want-sets: every
// electrical and bus network of goldenNets and shapeNets.
var wantShapes = []struct {
	name string
	mk   func() Network
}{
	{"Ring16", goldenNets[0].mk}, {"Mesh4x4", goldenNets[1].mk}, {"OptBus16x8", goldenNets[2].mk},
	{"Ring5", shapeNets[0].mk}, {"Mesh2x3", shapeNets[1].mk}, {"OptBus16x3", shapeNets[2].mk}, {"OptBus5x8", shapeNets[3].mk},
}

// checkWantSets recomputes a network's want-sets from its queue heads and
// fails unless the maintained sets equal them.
func checkWantSets(t *testing.T, net Network, call int) {
	t.Helper()
	switch n := net.(type) {
	case *elecNet:
		want := make([]uint64, len(n.links))
		wanted := make(linkSet, len(n.wanted))
		for v, fs := range n.feeders {
			for slot, f := range fs {
				if f.q.Len() == 0 {
					continue
				}
				if li := n.route[v*n.nodes+(*f.q.At(0)).Dst]; li >= 0 {
					want[li] |= 1 << uint(slot)
					wanted.add(li)
				}
			}
		}
		if !slices.Equal(n.want, want) || !slices.Equal(n.wanted, wanted) {
			t.Fatalf("%s call %d: want %x wanted %x, queue heads give %x and %x", n.name, call, n.want, n.wanted, want, wanted)
		}
	case *optBus:
		want := make([]uint64, n.channels)
		var mcHeads uint64
		queued := 0
		for node := range n.queues {
			q := &n.queues[node]
			if queued += q.Len(); q.Len() == 0 {
				continue
			}
			if p := *q.At(0); p.Multicast != nil {
				mcHeads |= 1 << uint(node)
			} else {
				want[n.homeChannel(p.Dst)] |= 1 << uint(node)
			}
		}
		if !slices.Equal(n.want, want) || n.mcHeads != mcHeads || n.queued != queued {
			t.Fatalf("OptBus call %d: want %x mcHeads %x queued %d, queues give %x, %x and %d", call, n.want, n.mcHeads, n.queued, want, mcHeads, queued)
		}
		if len(n.inFlight) > 0 {
			due := n.inFlight[0].arrives
			for _, tx := range n.inFlight {
				due = min(due, tx.arrives)
			}
			if n.nextDue != due {
				t.Fatalf("OptBus call %d: nextDue %d, earliest arrival in flight %d", call, n.nextDue, due)
			}
		}
	default:
		t.Fatalf("%s has no want-sets", net.Name())
	}
}

// driveWants runs script on net and checks the want-sets after every call.
// A byte whose low two bits are 0 steps one cycle. Any other byte injects a
// packet from node b>>2 (mod nodes) to the node the next byte names, 64
// bits times one plus that byte's high nibble long; on the bus, low bits 3
// make it a multicast to the nodes set among that byte's low eight bits.
// It returns the packets delivered.
func driveWants(t *testing.T, net Network, script []byte) int64 {
	t.Helper()
	var delivered, cycle int64
	net.SetSink(func(*Packet, int64) { delivered++ })
	nodes := net.Nodes()
	_, bus := net.(*optBus)
	for i := 0; i < len(script); i++ {
		b := script[i]
		if b&3 == 0 {
			net.Step(cycle)
			cycle++
			checkWantSets(t, net, i)
			continue
		}
		var arg byte
		if i+1 < len(script) {
			i++
			arg = script[i]
		}
		p := &Packet{ID: int64(i), Src: int(b>>2) % nodes, Dst: int(arg) % nodes, Bits: 64 * (1 + int(arg>>4))}
		if bus && b&3 == 3 {
			for d := 0; d < min(nodes, 8); d++ {
				if arg>>uint(d)&1 == 1 {
					p.Multicast = append(p.Multicast, d)
				}
			}
			if p.Multicast == nil {
				p.Multicast = []int{p.Dst}
			}
		}
		net.Inject(p, cycle)
		checkWantSets(t, net, i)
	}
	return delivered
}

func TestWantSetsMatchQueues(t *testing.T) {
	for si, shape := range wantShapes {
		t.Run(shape.name, func(t *testing.T) {
			var delivered int64
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed*100 + int64(si)))
				// Of every eight bytes, about two (saturating) or six
				// (light load) are forced to be steps.
				for _, steps := range []int{2, 6} {
					script := make([]byte, 4000)
					rng.Read(script)
					for i := range script {
						if rng.Intn(8) < steps {
							script[i] &^= 3
						}
					}
					delivered += driveWants(t, shape.mk(), script)
				}
			}
			if delivered == 0 {
				t.Fatal("nothing was delivered: the scripts do not exercise the grant passes")
			}
		})
	}
}

func FuzzNoPWantSets(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		driveWants(t, wantShapes[int(script[0])%len(wantShapes)].mk(), script[1:])
	})
}

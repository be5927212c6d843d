// Package noc is a cycle-driven flit-level network-on-package simulator in
// the spirit of Booksim (the tool the paper extends Sniper with). It models
// the four evaluated NoP topologies — electrical ring, electrical 2D mesh,
// optical bus, and the Flumen MZIM — with input-queued routers,
// credit-based virtual cut-through flow control, deterministic routing, and
// a wavefront-arbitrated non-blocking crossbar for the MZIM. Synthetic
// traffic (uniform random, bit reversal, shuffle) drives the latency versus
// offered load curves of Fig. 11; event counters feed the energy model.
package noc

import "fmt"

// Packet is the unit of transfer. Sizes are in bits; networks serialize
// packets over links of their native width.
type Packet struct {
	ID          int64
	Src, Dst    int
	Bits        int
	InjectCycle int64
	RecvCycle   int64
	// Multicast destinations (nil for unicast). When set, Dst is ignored
	// and the packet is delivered to every listed node.
	Multicast []int
}

// Network is a cycle-steppable NoP model.
type Network interface {
	// Name identifies the topology for reports.
	Name() string
	// Nodes returns the endpoint count.
	Nodes() int
	// Inject offers a packet at its source node's injection queue at the
	// current cycle; it returns false when the injection queue is full
	// (the caller retries later, modelling source queueing). A refused
	// packet is the caller's again at once: the network keeps no
	// reference to it.
	Inject(p *Packet, now int64) bool
	// Step advances the network one cycle; delivered packets are passed to
	// the sink callback with their receive cycle set.
	Step(now int64)
	// SetSink registers the delivery callback. Once the network has handed
	// a packet to the sink it keeps no reference to it and never reads or
	// writes it again, so the receiver may reuse it for a later Inject:
	// chip.System and RunSynthetic both do. A multicast is delivered as
	// one fresh copy per destination.
	SetSink(func(p *Packet, now int64))
	// Counters returns the accumulated event counters.
	Counters() Counters
}

// Counters aggregates the events the energy model charges for.
type Counters struct {
	InjectedPackets  int64
	DeliveredPackets int64
	// BitHops counts bits × electrical link traversals (energy ∝ hops).
	BitHops int64
	// PhotonicBits counts bits crossing the photonic medium once.
	PhotonicBits int64
	// LinkBusyCycles accumulates busy cycles across all links; paired with
	// LinkCount and elapsed cycles it yields average link utilization
	// (Fig. 1).
	LinkBusyCycles int64
	LinkCount      int
	// Reconfigurations counts MZIM phase-programming events (3-cycle comm
	// setups), which add the latency overhead quantified in Sec 5.4.2.
	Reconfigurations int64
}

// LinkUtilization returns average link utilization over the elapsed cycles.
func (c Counters) LinkUtilization(cycles int64) float64 {
	if cycles <= 0 || c.LinkCount == 0 {
		return 0
	}
	return float64(c.LinkBusyCycles) / (float64(cycles) * float64(c.LinkCount))
}

func validatePacket(p *Packet, nodes int) {
	if p.Src < 0 || p.Src >= nodes {
		panic(fmt.Sprintf("noc: packet src %d out of range", p.Src))
	}
	if p.Multicast == nil && (p.Dst < 0 || p.Dst >= nodes) {
		panic(fmt.Sprintf("noc: packet dst %d out of range", p.Dst))
	}
	for _, d := range p.Multicast {
		if d < 0 || d >= nodes {
			panic(fmt.Sprintf("noc: packet multicast dst %d out of range", d))
		}
	}
	if p.Bits <= 0 {
		panic("noc: packet must carry at least one bit")
	}
}

// serCycles returns the serialization time of a packet over a link of the
// given width (bits per cycle).
func serCycles(bits, widthBits int) int64 {
	return int64((bits + widthBits - 1) / widthBits)
}

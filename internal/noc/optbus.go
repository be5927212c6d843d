package noc

import "flumen/internal/fifo"

// optBus models the shared-waveguide optical bus topology (Fig. 10c) as a
// multiple-writer single-reader (MWSR) design: each receiving endpoint owns
// a home wavelength-group channel on the circular waveguide (nodes share
// channels when there are fewer channels than nodes), and writers contend
// for the destination's home channel. A granted transmission occupies the
// channel for the packet's serialization time plus a fixed propagation
// latency; there are no intermediate hops, but receiver-side contention on
// the shared medium limits throughput (Sec 5.2: "the routers are connected
// via a shared waveguide and experience higher contention").
type optBus struct {
	nodes      int
	channels   int
	widthBits  int // per channel, bits per cycle
	propCycles int64
	injectCap  int

	queues []fifo.Queue[*Packet] // per-node FIFO awaiting a channel
	queued int                   // packets in queues (skip the grant scan when zero)
	busy   []int64               // per channel: cycle at which it frees
	// Head sets, one bit per node, kept where a head changes (wantHead,
	// popHead): want[ch] holds the nodes whose unicast head has home
	// channel ch, mcHeads those whose head is a multicast, which may take
	// any free channel.
	want     []uint64
	mcHeads  uint64
	inFlight []busTx
	nextDue  int64 // earliest arrives in inFlight (skip the delivery pass before it)
	rrNode   int   // round-robin grant pointer
	sink     func(*Packet, int64)
	counters Counters
}

type busTx struct {
	p       *Packet
	arrives int64
}

// NewOptBus builds an optical bus with the given endpoint count (at most
// 64, the width of a head set), channel count and per-channel width
// (bits/cycle).
func NewOptBus(nodes, channels, widthBits int) Network {
	if nodes < 2 || channels < 1 {
		panic("noc: OptBus needs ≥2 nodes and ≥1 channel")
	}
	if nodes > 64 {
		panic("noc: OptBus serves at most 64 nodes")
	}
	return &optBus{
		nodes: nodes, channels: channels, widthBits: widthBits,
		// Waveguide propagation plus the shared-medium arbitration round
		// trip (token/grant on the arbitration waveguide).
		propCycles: 4, injectCap: 16,
		queues: make([]fifo.Queue[*Packet], nodes),
		busy:   make([]int64, channels),
		want:   make([]uint64, channels),
	}
}

func (b *optBus) Name() string                   { return "OptBus" }
func (b *optBus) Nodes() int                     { return b.nodes }
func (b *optBus) SetSink(f func(*Packet, int64)) { b.sink = f }

func (b *optBus) Counters() Counters {
	c := b.counters
	c.LinkCount = b.channels
	return c
}

func (b *optBus) Inject(p *Packet, now int64) bool {
	validatePacket(p, b.nodes)
	if b.queues[p.Src].Len() >= b.injectCap {
		return false
	}
	p.InjectCycle = now
	q := &b.queues[p.Src]
	if q.Push(p); q.Len() == 1 {
		b.wantHead(p.Src, p)
	}
	b.queued++
	b.counters.InjectedPackets++
	return true
}

// homeChannel returns the wavelength-group channel a destination listens
// on.
func (b *optBus) homeChannel(dst int) int { return dst % b.channels }

// wantHead records p, now the head of node's queue, in its head set.
func (b *optBus) wantHead(node int, p *Packet) {
	if p.Multicast != nil {
		b.mcHeads |= 1 << uint(node)
	} else {
		b.want[b.homeChannel(p.Dst)] |= 1 << uint(node)
	}
}

// popHead takes the head of node's queue out of the queue and its head
// set, and records the head it exposes.
func (b *optBus) popHead(node int) *Packet {
	q := &b.queues[node]
	p := q.Pop()
	if p.Multicast != nil {
		b.mcHeads &^= 1 << uint(node)
	} else {
		b.want[b.homeChannel(p.Dst)] &^= 1 << uint(node)
	}
	if q.Len() > 0 {
		b.wantHead(node, *q.At(0))
	}
	return p
}

func (b *optBus) Step(now int64) {
	// Deliver completed transmissions, in the order they were granted.
	if len(b.inFlight) > 0 && b.nextDue <= now {
		kept := b.inFlight[:0]
		for _, tx := range b.inFlight {
			if tx.arrives <= now {
				tx.p.RecvCycle = now
				b.counters.DeliveredPackets++
				if b.sink != nil {
					b.sink(tx.p, now)
				}
			} else {
				if len(kept) == 0 || tx.arrives < b.nextDue {
					b.nextDue = tx.arrives
				}
				kept = append(kept, tx)
			}
		}
		b.inFlight = kept
	}
	// Grant free channels round-robin across waiting nodes: the first node
	// at or after rrNode whose head may ride the channel. A unicast must
	// ride its destination's home channel (MWSR); a multicast is a single
	// transmission heard at every drop, so it may use any free channel.
	for ch := 0; ch < b.channels && b.queued > 0; ch++ {
		if b.busy[ch] > now {
			continue
		}
		cands := b.want[ch] | b.mcHeads
		if cands == 0 {
			continue
		}
		node := firstFrom(cands, b.rrNode)
		p := b.popHead(node)
		b.queued--
		ser := serCycles(p.Bits, b.widthBits)
		b.busy[ch] = now + ser
		b.counters.LinkBusyCycles += ser
		b.counters.PhotonicBits += int64(p.Bits)
		arrives := now + ser + b.propCycles
		if len(b.inFlight) == 0 || arrives < b.nextDue {
			b.nextDue = arrives
		}
		if p.Multicast != nil {
			for _, d := range p.Multicast {
				cp := *p
				cp.Dst = d
				cp.Multicast = nil
				b.inFlight = append(b.inFlight, busTx{p: &cp, arrives: arrives})
			}
		} else {
			b.inFlight = append(b.inFlight, busTx{p: p, arrives: arrives})
		}
		if b.rrNode = node + 1; b.rrNode == b.nodes {
			b.rrNode = 0
		}
	}
}

package noc

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

	queues   []fifo[*Packet] // per-node FIFO awaiting a channel
	queued   int             // packets in queues (skip the grant scan when zero)
	busy     []int64         // per channel: cycle at which it frees
	inFlight []busTx
	rrNode   int // round-robin grant pointer
	sink     func(*Packet, int64)
	counters Counters
}

type busTx struct {
	p       *Packet
	arrives int64
}

// NewOptBus builds an optical bus with the given endpoint count, channel
// count and per-channel width (bits/cycle).
func NewOptBus(nodes, channels, widthBits int) Network {
	if nodes < 2 || channels < 1 {
		panic("noc: OptBus needs ≥2 nodes and ≥1 channel")
	}
	return &optBus{
		nodes: nodes, channels: channels, widthBits: widthBits,
		// Waveguide propagation plus the shared-medium arbitration round
		// trip (token/grant on the arbitration waveguide).
		propCycles: 4, injectCap: 16,
		queues: make([]fifo[*Packet], nodes),
		busy:   make([]int64, channels),
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
	if b.queues[p.Src].len() >= b.injectCap {
		return false
	}
	p.InjectCycle = now
	b.queues[p.Src].push(p)
	b.queued++
	b.counters.InjectedPackets++
	return true
}

// homeChannel returns the wavelength-group channel a destination listens
// on.
func (b *optBus) homeChannel(dst int) int { return dst % b.channels }

func (b *optBus) Step(now int64) {
	// Deliver completed transmissions.
	if len(b.inFlight) > 0 {
		kept := b.inFlight[:0]
		for _, tx := range b.inFlight {
			if tx.arrives <= now {
				tx.p.RecvCycle = now
				b.counters.DeliveredPackets++
				if b.sink != nil {
					b.sink(tx.p, now)
				}
			} else {
				kept = append(kept, tx)
			}
		}
		b.inFlight = kept
	}
	// Grant free channels round-robin across waiting nodes. A unicast must
	// ride its destination's home channel (MWSR); a multicast is a single
	// transmission heard at every drop, so it may use any free channel.
	for ch := 0; ch < b.channels && b.queued > 0; ch++ {
		if b.busy[ch] > now {
			continue
		}
		for k := 0; k < b.nodes; k++ {
			node := b.rrNode + k
			if node >= b.nodes {
				node -= b.nodes
			}
			q := &b.queues[node]
			if q.len() == 0 {
				continue
			}
			p := q.at(0)
			if p.Multicast == nil && b.homeChannel(p.Dst) != ch {
				continue
			}
			q.pop()
			b.queued--
			ser := serCycles(p.Bits, b.widthBits)
			b.busy[ch] = now + ser
			b.counters.LinkBusyCycles += ser
			b.counters.PhotonicBits += int64(p.Bits)
			arrives := now + ser + b.propCycles
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
			b.rrNode = node + 1
			if b.rrNode == b.nodes {
				b.rrNode = 0
			}
			break
		}
	}
}

package noc

import (
	"fmt"
	"math/bits"

	"flumen/internal/fifo"
)

// MZIMNet models the Flumen photonic fabric as a NoP: a non-blocking
// crossbar of endpoint ports scheduled by the MZIM control unit's wavefront
// arbiter. Establishing a connection reprograms MZI phases (the 1 ns ≈ 3
// cycle communication setup of Sec 4.1); a programmed path then streams the
// packet at the port's WDM bandwidth. Physical multicast transmits once and
// is heard at every granted destination. Ports can be withdrawn from the
// communication pool while a compute partition owns them (Sec 3.4).
type MZIMNet struct {
	nodes       int
	widthBits   int
	setupCycles int64
	bufCap      int

	queues []fifo.Queue[*Packet]
	arb    *WavefrontArbiter
	conns  []mzimConn
	rrMC   int

	// Port sets, one bit per endpoint: what a cycle does is found by
	// intersecting them, so a Step costs what the packets present cost.
	nonEmpty uint64 // request buffer holds a packet
	sending  uint64 // source of a live connection
	dstBusy  uint64 // destination of a live connection
	portOK   uint64 // in the communication pool

	// lookahead is the per-endpoint request-buffer scan depth of the
	// arbiter (1 = pure FIFO with head-of-line blocking).
	lookahead int

	req    []uint64 // per-source request masks, rebuilt for the sources that bid
	grants []int

	queued      int // total queued packets (skip arbitration when zero)
	queuedMC    int // of which multicast (skip the multicast pass when zero)
	injectedNow int // packets injected since the last CycleTelemetry read

	sink     func(*Packet, int64)
	counters Counters
}

// mzimConn is a source port's connection; it is live while the port's bit
// in MZIMNet.sending is set.
type mzimConn struct {
	doneAt int64
	p      *Packet
	// lastDoneAt records when the port's previous transfer completed; a
	// grant issued immediately after completion hides its phase setup
	// behind the previous transfer (the control unit computes matches
	// every cycle and programs the next path while the current one
	// drains).
	lastDoneAt int64
}

// NewMZIM builds a Flumen MZIM NoP with the given endpoint count (at most
// 64, the arbiter's width), per-port width (bits/cycle) and connection
// setup latency in cycles.
func NewMZIM(nodes, widthBits int, setupCycles int64) *MZIMNet {
	if nodes < 2 {
		panic("noc: MZIM needs at least 2 nodes")
	}
	arb := NewWavefrontArbiter(nodes)
	return &MZIMNet{
		nodes: nodes, widthBits: widthBits, setupCycles: setupCycles,
		bufCap:    16,
		queues:    make([]fifo.Queue[*Packet], nodes),
		arb:       arb,
		conns:     make([]mzimConn, nodes),
		portOK:    arb.ports,
		lookahead: 2,
		req:       make([]uint64, nodes),
		grants:    make([]int, nodes),
	}
}

// SetLookahead configures the arbiter's request-buffer scan depth (≥1).
// Depth 1 models a pure FIFO endpoint buffer with head-of-line blocking
// (ablation); the default of 2 lets the control unit bypass a blocked
// head.
func (m *MZIMNet) SetLookahead(k int) {
	if k < 1 {
		k = 1
	}
	m.lookahead = k
}

func (m *MZIMNet) Name() string                   { return "Flumen" }
func (m *MZIMNet) Nodes() int                     { return m.nodes }
func (m *MZIMNet) SetSink(f func(*Packet, int64)) { m.sink = f }

func (m *MZIMNet) Counters() Counters {
	c := m.counters
	c.LinkCount = m.nodes // one port-to-fabric link per endpoint
	return c
}

// SetPortAvailable adds or removes a port from the communication pool
// (removed ports belong to an active compute partition).
func (m *MZIMNet) SetPortAvailable(port int, ok bool) {
	if port < 0 || port >= m.nodes {
		panic(fmt.Sprintf("noc: MZIM port %d out of range", port))
	}
	if ok {
		m.portOK |= 1 << uint(port)
	} else {
		m.portOK &^= 1 << uint(port)
	}
}

// BufferOccupancy appends the current per-endpoint request buffer depths,
// which the Flumen scheduler's Partitioner inspects (RegBuffUtil,
// Algorithm 1), to buf[:0] and returns it; a caller that reads them every
// evaluation period passes its previous result back.
func (m *MZIMNet) BufferOccupancy(buf []int) []int {
	buf = buf[:0]
	for i := range m.queues {
		buf = append(buf, m.queues[i].Len())
	}
	return buf
}

// BufferCapacity returns the per-endpoint buffer capacity.
func (m *MZIMNet) BufferCapacity() int { return m.bufCap }

func (m *MZIMNet) Inject(p *Packet, now int64) bool {
	validatePacket(p, m.nodes)
	q := &m.queues[p.Src]
	if q.Len() >= m.bufCap {
		return false
	}
	p.InjectCycle = now
	q.Push(p)
	m.nonEmpty |= 1 << uint(p.Src)
	m.queued++
	if p.Multicast != nil {
		m.queuedMC++
	}
	m.injectedNow++
	m.counters.InjectedPackets++
	return true
}

// CycleTelemetry returns the packets injected since the previous call and
// the current total endpoint buffer occupancy, then resets the injection
// counter. Read once per cycle, this is the feed for a fabric arbiter's
// idle detector.
func (m *MZIMNet) CycleTelemetry() (injected, queued int) {
	injected = m.injectedNow
	m.injectedNow = 0
	return injected, m.queued
}

// dstMask is the set of ports a packet is addressed to.
func dstMask(p *Packet) uint64 {
	if p.Multicast == nil {
		return 1 << uint(p.Dst)
	}
	var m uint64
	for _, d := range p.Multicast {
		m |= 1 << uint(d)
	}
	return m
}

// connect takes the k-th queued packet of source s out of its buffer and
// sets up its path. A unicast is later delivered as the packet itself;
// p.Multicast must not change while p is in the network.
func (m *MZIMNet) connect(s, k int, now int64) {
	q := &m.queues[s]
	p := q.Remove(k)
	if q.Len() == 0 {
		m.nonEmpty &^= 1 << uint(s)
	}
	m.queued--
	if p.Multicast != nil {
		m.queuedMC--
	}
	c := &m.conns[s]
	ser := serCycles(p.Bits, m.widthBits)
	setup := m.setupCycles
	if now <= c.lastDoneAt+1 {
		// Back-to-back grant: the next path's MZI phases were programmed
		// while the previous transfer drained.
		setup = 0
	}
	c.p, c.doneAt = p, now+setup+ser
	m.sending |= 1 << uint(s)
	m.dstBusy |= dstMask(p)
	m.counters.Reconfigurations++
	m.counters.PhotonicBits += int64(p.Bits)
	m.counters.LinkBusyCycles += ser
}

func (m *MZIMNet) deliver(p *Packet, now int64) {
	p.RecvCycle = now
	m.counters.DeliveredPackets++
	if m.sink != nil {
		m.sink(p, now)
	}
}

func (m *MZIMNet) Step(now int64) {
	// 1. Complete connections.
	for live := m.sending; live != 0; live &= live - 1 {
		s := bits.TrailingZeros64(live)
		c := &m.conns[s]
		if c.doneAt > now {
			continue
		}
		p := c.p
		m.dstBusy &^= dstMask(p)
		if p.Multicast == nil {
			m.deliver(p, now)
		} else {
			// One transmission, heard at every drop: each gets its copy.
			for _, d := range p.Multicast {
				dp := *p
				dp.Dst = d
				dp.Multicast = nil
				m.deliver(&dp, now)
			}
		}
		c.p = nil
		c.lastDoneAt = now
		m.sending &^= 1 << uint(s)
	}
	if m.queued == 0 {
		return
	}
	// 2. Grant multicast/broadcast heads first: a multicast needs every
	// destination port simultaneously (physical splitting tree).
	if m.queuedMC > 0 {
		for k := 0; k < m.nodes; k++ {
			s := (m.rrMC + k) % m.nodes
			if (m.nonEmpty&m.portOK&^m.sending)>>uint(s)&1 == 0 {
				continue
			}
			p := *m.queues[s].At(0)
			if p.Multicast == nil {
				continue
			}
			if dstMask(p)&(m.dstBusy|^m.portOK) != 0 {
				continue
			}
			m.connect(s, 0, now)
			m.rrMC = (s + 1) % m.nodes
		}
	}
	// 3. Wavefront arbitration for unicast heads, with request-buffer
	// lookahead: the control unit can see the first few queued requests
	// per endpoint, relieving FIFO head-of-line blocking when the head's
	// destination is busy.
	bidders := m.nonEmpty & m.portOK &^ m.sending
	anyReq := false
	for rest := bidders; rest != 0; rest &= rest - 1 {
		s := bits.TrailingZeros64(rest)
		q := &m.queues[s]
		var row uint64
		for k := 0; k < m.lookahead && k < q.Len(); k++ {
			p := *q.At(k)
			if p.Multicast != nil {
				// A multicast head waits for its destinations to free
				// up; one further back is not reordered around.
				break
			}
			row |= 1 << uint(p.Dst)
		}
		row &= m.portOK
		m.req[s] = row
		anyReq = anyReq || row != 0
	}
	if !anyReq {
		return
	}
	m.arb.Arbitrate(m.req, ^bidders, m.dstBusy|^m.portOK, m.grants)
	for rest := bidders; rest != 0; rest &= rest - 1 {
		s := bits.TrailingZeros64(rest)
		d := m.grants[s]
		if d < 0 {
			continue
		}
		q := &m.queues[s]
		for k := 0; k < m.lookahead && k < q.Len(); k++ {
			if p := *q.At(k); p.Dst == d && p.Multicast == nil {
				m.connect(s, k, now)
				break
			}
		}
	}
}

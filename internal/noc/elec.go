package noc

import (
	"fmt"
	"math/bits"

	"flumen/internal/fifo"
)

// elecNet is an input-queued, credit-based virtual cut-through electrical
// network over an arbitrary directed link graph with deterministic routing.
// Both the ring and the 2D mesh instantiate it. Each directed link owns an
// input buffer at its downstream router; packets serialize over links at
// the link width and incur a fixed router pipeline latency per hop.
type elecNet struct {
	name          string
	nodes         int
	widthBits     int
	bufPkts       int
	routerLatency int64
	injectCap     int

	links []elecLink
	// route[cur*nodes+dst] is the link to take from cur toward dst, or -1
	// for local delivery.
	route   []int
	injectQ []fifo.Queue[*Packet]
	feeders [][]feeder // per node: its injection queue, then each incoming link's buffer

	// Occupancy, kept at every move so that Step visits only the links
	// that carry something, in index order (the order deliveries and
	// credits have always been handed out in): an empty network costs
	// three empty words, not three passes over every link.
	wired    linkSet // a packet is on the wire
	buffered linkSet // the input buffer holds a packet
	wanted   linkSet // some queue head routes over the link (want[li] != 0)
	// want[li] is the set of feeders of links[li].from (bit k for
	// feeders[from][k]) whose head packet routes over link li. It changes
	// only where a head does (wantHead, popHead), so a packet's route is
	// looked up once per queue head, not once per link per cycle.
	want []uint64

	sink     func(*Packet, int64)
	counters Counters
}

// linkSet is a set of link indices, walked in ascending order.
type linkSet []uint64

func (s linkSet) add(i int)    { s[i>>6] |= 1 << uint(i&63) }
func (s linkSet) remove(i int) { s[i>>6] &^= 1 << uint(i&63) }

// firstFrom returns the lowest member of the non-empty set mask at or
// after from, wrapping to its lowest member when there is none: a
// round-robin pick.
func firstFrom(mask uint64, from int) int {
	if ahead := mask &^ (1<<uint(from) - 1); ahead != 0 {
		return bits.TrailingZeros64(ahead)
	}
	return bits.TrailingZeros64(mask)
}

// feeder is a candidate packet source at a router: the injection queue
// (link -1) or the input buffer of an incoming link.
type feeder struct {
	q    *fifo.Queue[*Packet]
	link int
}

type elecLink struct {
	from, to  int
	slot      int // index of this link's buffer in feeders[to]
	busyUntil int64
	credits   int
	queue     fifo.Queue[*Packet] // input buffer at the downstream router
	// arrivals holds the packets on the wire. A link serialises its sends
	// (busyUntil), so they land in the order they left: only the head can
	// be due.
	arrivals fifo.Queue[arrival]
	rrPtr    int // round-robin over upstream feeder queues
}

type arrival struct {
	p  *Packet
	at int64
}

func newElecNet(name string, nodes, widthBits, bufPkts, injectCap int, routerLatency int64) *elecNet {
	return &elecNet{
		name: name, nodes: nodes, widthBits: widthBits, bufPkts: bufPkts,
		routerLatency: routerLatency, injectCap: injectCap,
		injectQ: make([]fifo.Queue[*Packet], nodes),
	}
}

func (n *elecNet) addLink(from, to int) int {
	idx := len(n.links)
	n.links = append(n.links, elecLink{from: from, to: to, credits: n.bufPkts})
	return idx
}

// wire completes construction once every link is added: it tabulates the
// routing function, lists each router's feeder queues and sizes the sets.
func (n *elecNet) wire(route func(cur, dst int) int) *elecNet {
	n.route = make([]int, n.nodes*n.nodes)
	n.feeders = make([][]feeder, n.nodes)
	for v := 0; v < n.nodes; v++ {
		for dst := 0; dst < n.nodes; dst++ {
			n.route[v*n.nodes+dst] = route(v, dst)
		}
		n.feeders[v] = []feeder{{q: &n.injectQ[v], link: -1}}
		for i := range n.links {
			if l := &n.links[i]; l.to == v {
				l.slot = len(n.feeders[v])
				n.feeders[v] = append(n.feeders[v], feeder{q: &l.queue, link: i})
			}
		}
		if len(n.feeders[v]) > 64 {
			panic("noc: a router's feeder set is one 64-bit word")
		}
	}
	words := (len(n.links) + 63) / 64
	n.wired, n.buffered, n.wanted = make(linkSet, words), make(linkSet, words), make(linkSet, words)
	n.want = make([]uint64, len(n.links))
	return n
}

func (n *elecNet) Name() string { return n.name }
func (n *elecNet) Nodes() int   { return n.nodes }

func (n *elecNet) SetSink(f func(*Packet, int64)) { n.sink = f }

func (n *elecNet) Counters() Counters {
	c := n.counters
	c.LinkCount = len(n.links)
	return c
}

// wantHead records that p, now the head of feeder slot of router node,
// routes over its link (nothing when p is addressed to node itself).
func (n *elecNet) wantHead(node, slot int, p *Packet) {
	if li := n.route[node*n.nodes+p.Dst]; li >= 0 {
		n.want[li] |= 1 << uint(slot)
		n.wanted.add(li)
	}
}

// popHead takes the head of feeder slot q of router node, withdraws its
// want and records the want of the head it exposes.
func (n *elecNet) popHead(node, slot int, q *fifo.Queue[*Packet]) *Packet {
	p := q.Pop()
	if li := n.route[node*n.nodes+p.Dst]; li >= 0 {
		if n.want[li] &^= 1 << uint(slot); n.want[li] == 0 {
			n.wanted.remove(li)
		}
	}
	if q.Len() > 0 {
		n.wantHead(node, slot, *q.At(0))
	}
	return p
}

func (n *elecNet) Inject(p *Packet, now int64) bool {
	validatePacket(p, n.nodes)
	if p.Multicast != nil {
		panic("noc: electrical networks replicate multicast at the source; expand before injecting")
	}
	if n.injectQ[p.Src].Len() >= n.injectCap {
		return false
	}
	p.InjectCycle = now
	q := &n.injectQ[p.Src]
	if q.Push(p); q.Len() == 1 {
		n.wantHead(p.Src, 0, p)
	}
	n.counters.InjectedPackets++
	return true
}

// deliver hands over a packet just taken from a queue.
func (n *elecNet) deliver(p *Packet, now int64) {
	p.RecvCycle = now
	n.counters.DeliveredPackets++
	if n.sink != nil {
		n.sink(p, now)
	}
}

func (n *elecNet) Step(now int64) {
	// 1. Land in-flight packets into downstream buffers (slots were
	// reserved at send time).
	for wi, w := range n.wired {
		for ; w != 0; w &= w - 1 {
			li := wi<<6 | bits.TrailingZeros64(w)
			l := &n.links[li]
			for l.arrivals.Len() > 0 && l.arrivals.At(0).at <= now {
				p := l.arrivals.Pop().p
				if l.queue.Push(p); l.queue.Len() == 1 {
					n.wantHead(l.to, l.slot, p)
				}
				n.buffered.add(li)
			}
			if l.arrivals.Len() == 0 {
				n.wired.remove(li)
			}
		}
	}
	// 2. Eject packets that have reached their destination: injection
	// queue heads destined to self, then link buffer heads.
	for node := range n.injectQ {
		if q := &n.injectQ[node]; q.Len() > 0 && (*q.At(0)).Dst == node {
			n.deliver(n.popHead(node, 0, q), now)
		}
	}
	for wi, w := range n.buffered {
		for ; w != 0; w &= w - 1 {
			li := wi<<6 | bits.TrailingZeros64(w)
			l := &n.links[li]
			if (*l.queue.At(0)).Dst != l.to {
				continue
			}
			p := n.popHead(l.to, l.slot, &l.queue)
			if l.queue.Len() == 0 {
				n.buffered.remove(li)
			}
			l.credits++
			n.deliver(p, now)
		}
	}
	// 3. Transmit: each free link that a queue head routes over picks one
	// (round-robin over the feeder queues of its upstream router). The
	// walk is ascending and reads each word live, so a head exposed by a
	// send is served this cycle if its link lies ahead (DESIGN §3b).
	for wi := range n.wanted {
		for w := n.wanted[wi]; w != 0; {
			b := bits.TrailingZeros64(w)
			li := wi<<6 | b
			if l := &n.links[li]; l.busyUntil <= now && l.credits > 0 {
				n.transmit(li, l, now)
			}
			w = n.wanted[wi] &^ (2<<uint(b) - 1)
		}
	}
}

// transmit sends the head of the first feeder queue in want[li] at or
// after the link's round-robin pointer, wrapping.
func (n *elecNet) transmit(li int, l *elecLink, now int64) {
	mask := n.want[li]
	if l.credits < 2 {
		// Bubble rule: packets entering the network from the injection
		// queue (slot 0) need two free downstream slots, preventing ring
		// deadlock under virtual cut-through.
		mask &^= 1
	}
	if mask == 0 {
		return
	}
	slot := firstFrom(mask, l.rrPtr)
	f := n.feeders[l.from][slot]
	p := n.popHead(l.from, slot, f.q)
	if f.link >= 0 {
		// Free the slot in the buffer the packet came from.
		n.links[f.link].credits++
		if f.q.Len() == 0 {
			n.buffered.remove(f.link)
		}
	}
	ser := serCycles(p.Bits, n.widthBits)
	l.busyUntil = now + ser
	l.credits--
	l.arrivals.Push(arrival{p: p, at: now + ser + n.routerLatency})
	n.wired.add(li)
	n.counters.BitHops += int64(p.Bits)
	n.counters.LinkBusyCycles += ser
	if l.rrPtr = slot + 1; l.rrPtr == len(n.feeders[l.from]) {
		l.rrPtr = 0
	}
}

// NewRing builds a bidirectional electrical ring of `nodes` endpoints with
// shortest-direction routing and bubble flow control. Link width is in
// bits per cycle.
func NewRing(nodes, widthBits, bufPkts int) Network {
	if nodes < 2 {
		panic("noc: ring needs at least 2 nodes")
	}
	n := newElecNet("Ring", nodes, widthBits, bufPkts, 16, 1)
	cw := make([]int, nodes)  // link index node -> node+1
	ccw := make([]int, nodes) // link index node -> node-1
	for i := 0; i < nodes; i++ {
		cw[i] = n.addLink(i, (i+1)%nodes)
	}
	for i := 0; i < nodes; i++ {
		ccw[i] = n.addLink(i, (i-1+nodes)%nodes)
	}
	return n.wire(func(cur, dst int) int {
		if cur == dst {
			return -1
		}
		fwd := (dst - cur + nodes) % nodes
		if fwd <= nodes-fwd {
			return cw[cur]
		}
		return ccw[cur]
	})
}

// NewMesh builds a rows×cols electrical 2D mesh with XY dimension-order
// routing.
func NewMesh(rows, cols, widthBits, bufPkts int) Network {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		panic("noc: mesh needs at least 2 nodes")
	}
	nodes := rows * cols
	n := newElecNet("Mesh", nodes, widthBits, bufPkts, 16, 1)
	type dirLinks struct{ e, w, s, no int }
	dl := make([]dirLinks, nodes)
	for i := range dl {
		dl[i] = dirLinks{e: -1, w: -1, s: -1, no: -1}
	}
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				dl[id(r, c)].e = n.addLink(id(r, c), id(r, c+1))
				dl[id(r, c+1)].w = n.addLink(id(r, c+1), id(r, c))
			}
			if r+1 < rows {
				dl[id(r, c)].s = n.addLink(id(r, c), id(r+1, c))
				dl[id(r+1, c)].no = n.addLink(id(r+1, c), id(r, c))
			}
		}
	}
	return n.wire(func(cur, dst int) int {
		if cur == dst {
			return -1
		}
		cr, cc := cur/cols, cur%cols
		dr, dc := dst/cols, dst%cols
		switch {
		case dc > cc:
			return dl[cur].e
		case dc < cc:
			return dl[cur].w
		case dr > cr:
			return dl[cur].s
		case dr < cr:
			return dl[cur].no
		}
		panic(fmt.Sprintf("noc: mesh routing stuck at %d toward %d", cur, dst))
	})
}

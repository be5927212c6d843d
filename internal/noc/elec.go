package noc

import (
	"fmt"
	"math/bits"
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

	links    []elecLink
	outLinks [][]int // outLinks[node] = indices of links leaving node
	// route[cur*nodes+dst] is the link to take from cur toward dst, or -1
	// for local delivery.
	route   []int
	injectQ []fifo[*Packet]
	feeders [][]feeder // per node: its injection queue, then each incoming link's buffer

	// Occupancy, kept at every move so that Step visits only the links
	// that hold something, in index order (the order deliveries and
	// credits have always been handed out in): an empty network costs
	// three empty words, not three passes over every link.
	wired    linkSet // a packet is on the wire
	buffered linkSet // the input buffer holds a packet
	fed      linkSet // the upstream router holds a packet (held[from] > 0)
	held     []int   // per router: packets in its injection queue and input buffers

	sink     func(*Packet, int64)
	counters Counters
}

// linkSet is a set of link indices, walked in ascending order.
type linkSet []uint64

func (s linkSet) add(i int)    { s[i>>6] |= 1 << uint(i&63) }
func (s linkSet) remove(i int) { s[i>>6] &^= 1 << uint(i&63) }

// feeder is a candidate packet source at a router: the injection queue
// (link -1) or the input buffer of an incoming link.
type feeder struct {
	q    *fifo[*Packet]
	link int
}

type elecLink struct {
	from, to  int
	busyUntil int64
	credits   int
	queue     fifo[*Packet] // input buffer at the downstream router
	// arrivals holds the packets on the wire. A link serialises its sends
	// (busyUntil), so they land in the order they left: only the head can
	// be due.
	arrivals fifo[arrival]
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
		outLinks: make([][]int, nodes),
		injectQ:  make([]fifo[*Packet], nodes),
		held:     make([]int, nodes),
	}
}

func (n *elecNet) addLink(from, to int) int {
	idx := len(n.links)
	n.links = append(n.links, elecLink{from: from, to: to, credits: n.bufPkts})
	n.outLinks[from] = append(n.outLinks[from], idx)
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
				n.feeders[v] = append(n.feeders[v], feeder{q: &l.queue, link: i})
			}
		}
	}
	words := (len(n.links) + 63) / 64
	n.wired, n.buffered, n.fed = make(linkSet, words), make(linkSet, words), make(linkSet, words)
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

// hold adds d to the packets waiting at a router. When the count leaves or
// reaches zero, the router's outgoing links join or leave the set Step
// tries to send on.
func (n *elecNet) hold(node, d int) {
	was := n.held[node]
	n.held[node] = was + d
	switch {
	case was == 0:
		for _, li := range n.outLinks[node] {
			n.fed.add(li)
		}
	case was+d == 0:
		for _, li := range n.outLinks[node] {
			n.fed.remove(li)
		}
	}
}

func (n *elecNet) Inject(p *Packet, now int64) bool {
	validatePacket(p, n.nodes)
	if p.Multicast != nil {
		panic("noc: electrical networks replicate multicast at the source; expand before injecting")
	}
	if n.injectQ[p.Src].len() >= n.injectCap {
		return false
	}
	p.InjectCycle = now
	n.injectQ[p.Src].push(p)
	n.hold(p.Src, 1)
	n.counters.InjectedPackets++
	return true
}

// deliver hands over a packet just taken from a queue at router node.
func (n *elecNet) deliver(p *Packet, node int, now int64) {
	n.hold(node, -1)
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
			for l.arrivals.len() > 0 && l.arrivals.at(0).at <= now {
				l.queue.push(l.arrivals.pop().p)
				n.buffered.add(li)
				n.hold(l.to, 1)
			}
			if l.arrivals.len() == 0 {
				n.wired.remove(li)
			}
		}
	}
	// 2. Eject packets that have reached their destination: injection
	// queue heads destined to self, then link buffer heads.
	for node := range n.injectQ {
		if q := &n.injectQ[node]; q.len() > 0 && q.at(0).Dst == node {
			n.deliver(q.pop(), node, now)
		}
	}
	for wi, w := range n.buffered {
		for ; w != 0; w &= w - 1 {
			li := wi<<6 | bits.TrailingZeros64(w)
			l := &n.links[li]
			if l.queue.at(0).Dst != l.to {
				continue
			}
			p := l.queue.pop()
			if l.queue.len() == 0 {
				n.buffered.remove(li)
			}
			l.credits++
			n.deliver(p, l.to, now)
		}
	}
	// 3. Transmit: each free link picks one waiting packet (round-robin
	// over the feeder queues of its upstream router). A router emptied
	// earlier in the pass leaves its links in w; they find no packet.
	for wi, w := range n.fed {
		for ; w != 0; w &= w - 1 {
			li := wi<<6 | bits.TrailingZeros64(w)
			if l := &n.links[li]; l.busyUntil <= now && l.credits > 0 {
				n.transmit(li, l, now)
			}
		}
	}
}

// transmit sends the first packet routed over link li among the feeder
// queues of its upstream router, starting at the link's round-robin
// pointer.
func (n *elecNet) transmit(li int, l *elecLink, now int64) {
	feeders := n.feeders[l.from]
	for k := range feeders {
		qi := l.rrPtr + k
		if qi >= len(feeders) {
			qi -= len(feeders)
		}
		f := feeders[qi]
		if f.q.len() == 0 {
			continue
		}
		p := f.q.at(0)
		if n.route[l.from*n.nodes+p.Dst] != li {
			continue
		}
		// Bubble rule: packets entering the network from the injection
		// queue need two free downstream slots, preventing ring
		// deadlock under virtual cut-through.
		injecting := f.link < 0
		if injecting && l.credits < 2 {
			continue
		}
		f.q.pop()
		if !injecting {
			// Free the slot in the buffer the packet came from.
			n.links[f.link].credits++
			if f.q.len() == 0 {
				n.buffered.remove(f.link)
			}
		}
		ser := serCycles(p.Bits, n.widthBits)
		l.busyUntil = now + ser
		l.credits--
		l.arrivals.push(arrival{p: p, at: now + ser + n.routerLatency})
		n.wired.add(li)
		n.hold(l.from, -1)
		n.counters.BitHops += int64(p.Bits)
		n.counters.LinkBusyCycles += ser
		l.rrPtr = qi + 1
		if l.rrPtr == len(feeders) {
			l.rrPtr = 0
		}
		return
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

package chip

import (
	"fmt"
	"sync"

	"flumen/internal/fifo"
	"flumen/internal/noc"
)

// Config describes the multicore system of Table 1.
type Config struct {
	Cores    int
	Chiplets int

	LineBytes    int
	L1Bytes      int
	L1Ways       int
	L2Bytes      int
	L2Ways       int
	L3SliceBytes int // per chiplet slice
	L3Ways       int

	L1HitCycles int64
	L2HitCycles int64
	L3HitCycles int64
	DRAMCycles  int64
	// DRAMServiceCycles is the per-line occupancy of one memory channel
	// (bandwidth limit): a channel serves one 64 B line every this many
	// cycles in addition to the access latency.
	DRAMServiceCycles int64
	// CyclesPerMAC models the sustained multiply-accumulate issue rate of
	// one core on real (quantized, index-heavy) kernel code.
	CyclesPerMAC int64

	ReqBits  int
	RespBits int

	MemControllers []int // chiplet ids hosting DRAM channels

	// UtilWindow is the sampling window (cycles) for the link-utilization
	// timeline of Fig. 1; 0 disables sampling.
	UtilWindow int64
	// MaxCycles aborts runaway simulations.
	MaxCycles int64
}

// DefaultConfig returns the Table 1 system: 64 cores on 16 chiplets,
// 32 kB L1s, 512 kB private L2, a 16 MB L3 shared at 4-core concentration
// (1 MB slice per chiplet), and four DRAM channels at the corner chiplets.
func DefaultConfig() Config {
	return Config{
		Cores:    64,
		Chiplets: 16,

		LineBytes:    64,
		L1Bytes:      32 << 10,
		L1Ways:       8,
		L2Bytes:      512 << 10,
		L2Ways:       16,
		L3SliceBytes: 1 << 20,
		L3Ways:       16,

		L1HitCycles:       1,
		L2HitCycles:       8,
		L3HitCycles:       30,
		DRAMCycles:        250,
		DRAMServiceCycles: 8,
		CyclesPerMAC:      2,

		ReqBits:  128,
		RespBits: 640,

		MemControllers: []int{0, 3, 12, 15},

		UtilWindow: 0,
		MaxCycles:  500_000_000,
	}
}

// OffloadHandler receives KindOffload jobs. It returns true when the job is
// accepted (the core blocks until done is invoked); returning false makes
// the core execute the job's local fallback via the workload's convention
// (the handler itself is responsible for arranging fallback ops when it
// rejects — see internal/core).
type OffloadHandler func(coreID int, job any, now int64, done func()) bool

// System couples the cores, cache hierarchy and NoP.
type System struct {
	cfg   Config
	net   noc.Network
	cores []*coreState
	l3    []*Cache
	// arena backs every cache above; Run gives it back to arenas.
	arena *cacheArena

	handler OffloadHandler

	now       int64
	events    eventHeap
	recurring []*recurringEvent
	sendQ     []fifo.Queue[*noc.Packet] // per-node packets awaiting injection
	mcFree    []int64                   // per-memory-controller next-free cycle, by chiplet
	inFlight  int

	// Packets get consecutive IDs, so the delivery each one awaits sits at
	// ID − dlvBase in dlv, a queue trimmed from the front as the oldest
	// packets arrive.
	pktID   int64
	dlvBase int64
	dlv     fifo.Queue[pending]
	// Delivered packets, reused by send: a network keeps no reference to a
	// packet it has handed to the sink.
	freePkts []*noc.Packet

	// Line transactions in flight, named by index; finished ones are
	// reused from freeTxns.
	txns     []lineTxn
	freeTxns []int32

	// Core census, updated where a core changes state, so that Run asks
	// three counters each cycle and does not scan the cores three times.
	running   int // cores whose stream has not ended
	atBarrier int // running cores waiting at a barrier
	suspended int // running cores blocked on memory or on an offload

	// wake is the earliest cycle at which a core can run: the least readyAt
	// of the cores not done, blocked or at a barrier. A core scan sets it;
	// a line's return, an offload's completion and a barrier's release
	// lower it. Run scans the cores only in cycles at or after it.
	wake int64

	stats    Stats
	samples  []float64
	lastBusy int64
}

type coreState struct {
	id      int
	chiplet int
	stream  Stream

	readyAt   int64
	blockedOn int // outstanding memory responses
	offload   bool
	done      bool
	atBarrier bool

	cur      Op
	curValid bool
	lineIdx  int

	l1d *Cache
	l2  *Cache

	offloadDone func() // handed to the offload handler; one per core

	activeCycles int64
	macs         int64
	adds         int64
	l1iAccesses  int64
	doneAt       int64

	// Stall attribution: cycle at which the current memory/offload block
	// began, accumulated into the per-kind totals when it ends.
	memBlockedSince     int64
	offloadBlockedSince int64
	memStallCycles      int64
	offloadStallCycles  int64
}

// Stats aggregates countable events across the run.
type Stats struct {
	Cycles       int64
	ActiveCycles int64
	StallCycles  int64
	MACs         int64
	Adds         int64

	// MemStallCycles and OffloadStallCycles attribute blocked time across
	// cores (where does the time go: compute, memory, or waiting on the
	// MZIM control unit).
	MemStallCycles     int64
	OffloadStallCycles int64

	L1iAccesses  int64
	L1dAccesses  int64
	L1dMisses    int64
	L2Accesses   int64
	L2Misses     int64
	L3Accesses   int64
	L3Misses     int64
	DRAMAccesses int64

	OffloadsRequested int64
	OffloadsAccepted  int64

	Net noc.Counters
}

// recurringEvent fires every period cycles for the lifetime of the run; it
// does not keep the simulation alive (used for the control unit's τ
// evaluation loop).
type recurringEvent struct {
	period int64
	next   int64
	fn     func()
}

// never is later than any cycle a run reaches.
const never = int64(1) << 62

// arenas keeps the cache arrays of finished systems for the next ones:
// NewSystem takes an arena, Run gives it back. A system's caches hold
// 13 MB of tags and LRU ticks, which, allocated afresh, were 90 % of the
// bytes a suite pass allocated.
var arenas sync.Pool

// takeArena returns a zeroed arena of the given line count, reusing a
// pooled one when it has that size (one of another size is dropped).
func takeArena(lines int) *cacheArena {
	if a, ok := arenas.Get().(*cacheArena); ok && len(a.tags) == lines {
		clear(a.tags)
		clear(a.lru)
		return a
	}
	return newCacheArena(lines)
}

// systemCacheLines is the line count of a system's caches: each core's L1d
// and L2, each chiplet's L3 slice.
func systemCacheLines(cfg Config) int {
	perCore := cacheLines(cfg.L1Bytes, cfg.L1Ways, cfg.LineBytes) + cacheLines(cfg.L2Bytes, cfg.L2Ways, cfg.LineBytes)
	return cfg.Cores*perCore + cfg.Chiplets*cacheLines(cfg.L3SliceBytes, cfg.L3Ways, cfg.LineBytes)
}

// NewSystem builds a system over the given network. The network must have
// one endpoint per chiplet. Its caches are carved out of one pooled arena,
// which Run returns.
func NewSystem(cfg Config, net noc.Network) *System {
	if cfg.Cores%cfg.Chiplets != 0 {
		panic("chip: cores must divide evenly across chiplets")
	}
	if net.Nodes() != cfg.Chiplets {
		panic(fmt.Sprintf("chip: network has %d nodes, need %d chiplets", net.Nodes(), cfg.Chiplets))
	}
	s := &System{
		cfg:    cfg,
		net:    net,
		arena:  takeArena(systemCacheLines(cfg)),
		mcFree: make([]int64, cfg.Chiplets),
		sendQ:  make([]fifo.Queue[*noc.Packet], cfg.Chiplets),
	}
	if cfg.CyclesPerMAC < 1 {
		s.cfg.CyclesPerMAC = 1
	}
	if cfg.DRAMServiceCycles < 1 {
		s.cfg.DRAMServiceCycles = 1
	}
	perChiplet := cfg.Cores / cfg.Chiplets
	rest := *s.arena // carved from the front
	for id := 0; id < cfg.Cores; id++ {
		c := &coreState{
			id:      id,
			chiplet: id / perChiplet,
			stream:  EmptyStream{},
			l1d:     rest.carve(cfg.L1Bytes, cfg.L1Ways, cfg.LineBytes),
			l2:      rest.carve(cfg.L2Bytes, cfg.L2Ways, cfg.LineBytes),
		}
		c.offloadDone = func() {
			c.offload = false
			s.suspended--
			c.readyAt = s.now
			c.offloadStallCycles += s.now - c.offloadBlockedSince
			s.wakeAt(s.now)
		}
		s.cores = append(s.cores, c)
	}
	for ch := 0; ch < cfg.Chiplets; ch++ {
		s.l3 = append(s.l3, rest.carve(cfg.L3SliceBytes, cfg.L3Ways, cfg.LineBytes))
	}
	s.running = len(s.cores)
	net.SetSink(s.onDeliver)
	return s
}

// SetStream assigns core's op stream (before Run).
func (s *System) SetStream(core int, st Stream) { s.cores[core].stream = st }

// SetOffloadHandler installs the Flumen control-unit hook.
func (s *System) SetOffloadHandler(h OffloadHandler) { s.handler = h }

// Now returns the current cycle.
func (s *System) Now() int64 { return s.now }

// ChargeDRAM accounts additional DRAM line fetches performed by agents
// outside the cores (e.g. the MZIM control unit loading precomputed phase
// mappings from its matrix memory backing store, Sec 3.4).
func (s *System) ChargeDRAM(linesFetched int) {
	s.stats.DRAMAccesses += int64(linesFetched)
}

// ScheduleEvent runs fn at the given absolute cycle (≥ now).
func (s *System) ScheduleEvent(at int64, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.events.push(event{at: at, kind: evFunc, fn: fn})
}

// schedule queues a step of line transaction t; at is never before now.
func (s *System) schedule(at int64, kind eventKind, t int32) {
	s.events.push(event{at: at, kind: kind, txn: t})
}

// ScheduleRecurring runs fn every period cycles until the run ends.
// Recurring events do not keep the simulation alive.
func (s *System) ScheduleRecurring(period int64, fn func()) {
	if period <= 0 {
		panic("chip: recurring period must be positive")
	}
	s.recurring = append(s.recurring, &recurringEvent{period: period, next: s.now + period, fn: fn})
}

// send queues a packet from src to dst for injection; its delivery sets off
// what, for line transaction t.
func (s *System) send(src, dst, bits int, what delivery, t int32) {
	var p *noc.Packet
	if n := len(s.freePkts); n > 0 {
		p = s.freePkts[n-1]
		s.freePkts = s.freePkts[:n-1]
	} else {
		p = new(noc.Packet)
	}
	*p = noc.Packet{ID: s.pktID, Src: src, Dst: dst, Bits: bits}
	s.sendQ[src].Push(p)
	s.pktID++
	s.dlv.Push(pending{what: what, txn: t})
	s.inFlight++
}

// onDeliver carries on the transaction a delivered packet belongs to.
func (s *System) onDeliver(p *noc.Packet, now int64) {
	s.inFlight--
	s.freePkts = append(s.freePkts, p)
	d := s.dlv.At(int(p.ID - s.dlvBase))
	what, t := d.what, d.txn
	d.what = dlvDelivered
	for s.dlv.Len() > 0 && s.dlv.At(0).what == dlvDelivered {
		s.dlv.Pop()
		s.dlvBase++
	}
	switch what {
	case dlvL3:
		s.l3Access(t, now)
	case dlvDRAM:
		s.dram(t, now)
	case dlvFinish:
		s.finish(t, now)
	}
}

// fire runs one due event.
func (s *System) fire(e event) {
	if e.kind == evFunc {
		e.fn()
		return
	}
	x := &s.txns[e.txn]
	switch e.kind {
	case evL3:
		s.l3Access(e.txn, s.now)
	case evForward:
		s.send(x.home, x.mc, s.cfg.ReqBits, dlvDRAM, e.txn)
	case evDRAM:
		s.respond(e.txn, x.mc, s.now)
	case evRespond:
		if x.src == x.core.chiplet {
			s.finish(e.txn, s.now)
		} else {
			s.send(x.src, x.core.chiplet, s.cfg.RespBits, dlvFinish, e.txn)
		}
	}
}

// Run executes all op streams to completion and returns the statistics.
// It hands the cache arena back to the pool and drops the system's caches,
// so a system runs once: any later use of its caches panics rather than
// read lines another system has since written.
func (s *System) Run() Stats {
	for s.running > 0 || s.inFlight > 0 || len(s.events) > 0 {
		if s.now >= s.cfg.MaxCycles {
			panic(fmt.Sprintf("chip: simulation exceeded MaxCycles=%d", s.cfg.MaxCycles))
		}
		s.now++
		for len(s.events) > 0 && s.events[0].at <= s.now {
			s.fire(s.events.pop())
		}
		for _, r := range s.recurring {
			if r.next <= s.now {
				r.fn()
				r.next = s.now + r.period
			}
		}
		s.releaseBarrier()
		if s.now >= s.wake {
			s.wake = never
			for _, c := range s.cores {
				s.stepCore(c)
			}
		}
		for node := range s.sendQ {
			q := &s.sendQ[node]
			for q.Len() > 0 && s.net.Inject(*q.At(0), s.now) {
				q.Pop()
			}
		}
		s.net.Step(s.now)
		s.sampleUtilization()
		s.fastForward()
	}
	st := s.collect()
	for _, c := range s.cores {
		c.l1d, c.l2 = nil, nil
	}
	s.l3 = nil
	arenas.Put(s.arena)
	s.arena = nil
	return st
}

// fastForward jumps over quiescent stretches: no packets in flight or
// awaiting injection, no core waiting on memory, an offload or a barrier,
// and no event before the next core wake-up. It stops at the next
// utilization-window boundary, so that every window is sampled.
func (s *System) fastForward() {
	if s.inFlight > 0 || s.suspended > 0 || s.atBarrier > 0 {
		return
	}
	next := s.wake
	if len(s.events) > 0 && s.events[0].at < next {
		next = s.events[0].at
	}
	for _, r := range s.recurring {
		if r.next < next {
			next = r.next
		}
	}
	if next >= never {
		return
	}
	if w := s.cfg.UtilWindow; w > 0 {
		next = min(next, (s.now/w+1)*w)
	}
	if next > s.now+1 {
		s.now = next - 1
	}
}

// wakeAt makes sure the cores are scanned at cycle at.
func (s *System) wakeAt(at int64) {
	if at < s.wake {
		s.wake = at
	}
}

// releaseBarrier opens the barrier once every core still running has
// arrived at it.
func (s *System) releaseBarrier() {
	if s.atBarrier == 0 || s.atBarrier < s.running {
		return
	}
	for _, c := range s.cores {
		c.atBarrier = false
	}
	s.atBarrier = 0
	s.wakeAt(s.now)
}

// runnable reports whether the core waits on nothing but its own clock.
func (c *coreState) runnable() bool {
	return !c.done && c.blockedOn == 0 && !c.offload && !c.atBarrier
}

// stepCore runs core c up to the current cycle and lowers wake to the
// cycle it can run next.
func (s *System) stepCore(c *coreState) {
	for c.runnable() && c.readyAt <= s.now {
		if !c.curValid {
			op, ok := c.stream.Next()
			if !ok {
				c.done = true
				c.doneAt = s.now
				s.running--
				return
			}
			c.cur = op
			c.curValid = true
			c.lineIdx = 0
			c.l1iAccesses++ // an instruction fetch, counted as an L1i hit
		}
		s.execOp(c)
	}
	if c.runnable() {
		s.wakeAt(c.readyAt)
	}
}

func (s *System) execOp(c *coreState) {
	op := &c.cur
	switch op.Kind {
	case KindMAC:
		cycles := op.N * s.cfg.CyclesPerMAC
		if cycles < 1 {
			cycles = 1
		}
		c.readyAt = s.now + cycles
		c.activeCycles += cycles
		c.macs += op.N
		c.curValid = false
	case KindAdd:
		cycles := (op.N + 3) / 4
		if cycles < 1 {
			cycles = 1
		}
		c.readyAt = s.now + cycles
		c.activeCycles += cycles
		c.adds += op.N
		c.curValid = false
	case KindCompute:
		if op.N < 1 {
			op.N = 1
		}
		c.readyAt = s.now + op.N
		c.activeCycles += op.N
		c.curValid = false
	case KindLoadBlock, KindStoreBlock:
		s.execBlock(c)
	case KindBarrier:
		c.atBarrier = true
		s.atBarrier++
		c.curValid = false
	case KindOffload:
		s.stats.OffloadsRequested++
		if s.handler == nil {
			panic("chip: KindOffload op without an offload handler")
		}
		c.offloadBlockedSince = s.now
		accepted := s.handler(c.id, op.Job, s.now, c.offloadDone)
		c.curValid = false
		if accepted {
			s.stats.OffloadsAccepted++
			c.offload = true
			s.suspended++
		} else if fb, ok := op.Job.(FallbackJob); ok {
			// Rejected: execute the equivalent MACs locally.
			c.cur = Op{Kind: KindMAC, N: fb.FallbackMACs()}
			c.curValid = true
		}
	default:
		panic(fmt.Sprintf("chip: unknown op kind %d", op.Kind))
	}
}

// execBlock streams the lines of a block op through the hierarchy. Loads:
// L1/L2 hits cost pipelined local latency; deeper accesses launch
// transactions (burst, modelling prefetch/MLP) and the op completes when
// all responses have returned. Stores are write-combining and
// non-blocking: lines allocate locally and dirty data drains to memory in
// the background (write-back packets and DRAM energy are charged, but the
// core does not stall).
func (s *System) execBlock(c *coreState) {
	op := &c.cur
	store := op.Kind == KindStoreBlock
	var localLat int64
	for ; c.lineIdx < op.Lines; c.lineIdx++ {
		addr := op.Addr + uint64(c.lineIdx*s.cfg.LineBytes)
		if store {
			// Write-combining: hits coalesce in the cache; only newly
			// allocated dirty lines eventually write back to memory.
			hit := c.l1d.Access(addr)
			if !hit {
				hit = c.l2.Access(addr)
			}
			localLat += s.cfg.L1HitCycles
			if !hit {
				s.stats.DRAMAccesses++ // eventual write-back
				// Coalesced write-back burst every eight lines.
				if c.lineIdx%8 == 0 {
					mc := s.nearestMC(c.chiplet)
					if mc != c.chiplet {
						s.send(c.chiplet, mc, s.cfg.RespBits, dlvNone, 0)
					}
				}
			}
			continue
		}
		if c.l1d.Access(addr) {
			localLat += s.cfg.L1HitCycles
			continue
		}
		if c.l2.Access(addr) {
			localLat += s.cfg.L2HitCycles
			continue
		}
		// Miss beyond L2: goes to the L3 home slice.
		s.launchLineTxn(c, addr)
	}
	if localLat < 1 {
		localLat = 1
	}
	c.readyAt = s.now + localLat
	c.activeCycles += localLat
	c.curValid = false
}

// launchLineTxn starts the request/response chain for one line: a request
// to the home L3 slice (an event one cycle on when the slice is on the
// core's own chiplet, a packet otherwise), then l3Access.
func (s *System) launchLineTxn(c *coreState, addr uint64) {
	line := addr / uint64(s.cfg.LineBytes)
	home := int(line % uint64(s.cfg.Chiplets))
	c.blockedOn++
	if c.blockedOn == 1 {
		c.memBlockedSince = s.now
		s.suspended++
	}
	x := lineTxn{core: c, addr: addr, home: home}
	var t int32
	if n := len(s.freeTxns); n > 0 {
		t = s.freeTxns[n-1]
		s.freeTxns = s.freeTxns[:n-1]
		s.txns[t] = x
	} else {
		t = int32(len(s.txns))
		s.txns = append(s.txns, x)
	}
	if home == c.chiplet {
		s.schedule(s.now+1, evL3, t)
		return
	}
	s.send(c.chiplet, home, s.cfg.ReqBits, dlvL3, t)
}

// l3Access looks the line up in its home slice. A hit responds after the
// L3 latency; a miss goes on to the nearest memory controller, by packet
// after the L3 latency (evForward) unless the controller sits on the home
// chiplet.
func (s *System) l3Access(t int32, now int64) {
	x := &s.txns[t]
	after := now + s.cfg.L3HitCycles
	if s.l3[x.home].Access(x.addr) {
		s.respond(t, x.home, after)
		return
	}
	x.mc = s.nearestMC(x.home)
	s.stats.DRAMAccesses++
	if x.mc == x.home {
		s.dram(t, after)
		return
	}
	s.schedule(after, evForward, t)
}

// dram queues the line at its memory controller. Each channel has finite
// bandwidth: one line per DRAMServiceCycles.
func (s *System) dram(t int32, now int64) {
	mc := s.txns[t].mc
	start := max(now, s.mcFree[mc])
	s.mcFree[mc] = start + s.cfg.DRAMServiceCycles
	s.schedule(start+s.cfg.DRAMCycles, evDRAM, t)
}

// respond sends the line from src to the requesting chiplet at cycle at,
// or completes it there when src is that chiplet (evRespond).
func (s *System) respond(t int32, src int, at int64) {
	s.txns[t].src = src
	s.schedule(at, evRespond, t)
}

// finish returns line transaction t to its core, which runs again once
// every line it waits for is back.
func (s *System) finish(t int32, now int64) {
	c := s.txns[t].core
	s.freeTxns = append(s.freeTxns, t)
	c.blockedOn--
	if c.blockedOn == 0 {
		s.suspended--
		if c.readyAt < now {
			c.readyAt = now
		}
		c.memStallCycles += now - c.memBlockedSince
		s.wakeAt(c.readyAt)
	}
}

func (s *System) nearestMC(chiplet int) int {
	best := s.cfg.MemControllers[0]
	bestD := 1 << 30
	for _, mc := range s.cfg.MemControllers {
		d := mc - chiplet
		if d < 0 {
			d = -d
		}
		if d < bestD {
			bestD = d
			best = mc
		}
	}
	return best
}

func (s *System) sampleUtilization() {
	if s.cfg.UtilWindow <= 0 || s.now%s.cfg.UtilWindow != 0 {
		return
	}
	c := s.net.Counters()
	busy := c.LinkBusyCycles
	delta := busy - s.lastBusy
	s.lastBusy = busy
	denom := float64(s.cfg.UtilWindow) * float64(c.LinkCount)
	if denom > 0 {
		s.samples = append(s.samples, float64(delta)/denom)
	}
}

// UtilizationSamples returns the per-window link utilizations (Fig. 1).
func (s *System) UtilizationSamples() []float64 { return s.samples }

func (s *System) collect() Stats {
	st := s.stats
	st.Cycles = s.now
	for _, c := range s.cores {
		st.ActiveCycles += c.activeCycles
		end := c.doneAt
		if end == 0 {
			end = s.now
		}
		stall := end - c.activeCycles
		if stall < 0 {
			stall = 0
		}
		st.StallCycles += stall
		st.MemStallCycles += c.memStallCycles
		st.OffloadStallCycles += c.offloadStallCycles
		st.MACs += c.macs
		st.Adds += c.adds
		st.L1iAccesses += c.l1iAccesses
		st.L1dAccesses += c.l1d.Accesses
		st.L1dMisses += c.l1d.Misses
		st.L2Accesses += c.l2.Accesses
		st.L2Misses += c.l2.Misses
	}
	for _, l3 := range s.l3 {
		st.L3Accesses += l3.Accesses
		st.L3Misses += l3.Misses
	}
	st.Net = s.net.Counters()
	return st
}

package fabric

import "sync"

// Arbiter owns the fabric's partition registry and multiplexes it between
// NoP traffic and compute. All state is guarded by one mutex; TryAcquire
// grants a free partition when the mode admits compute, and Tick — driven
// once per simulated cycle by the NoP side — advances the idle-detector
// state machine and marks outstanding leases preempted.
type Arbiter struct {
	cfg Config

	mu sync.Mutex

	mode  Mode
	cycle int64

	leases []*Lease // by partition; nil while the partition is free
	active int      // leases outstanding

	det            *idleDetector
	reclaimStart   int64
	reclaimOverrun bool

	c counters
}

type counters struct {
	modeTransitions   int64
	leasesGranted     int64
	leasesPreempted   int64
	leasesReclaimed   int64
	preemptedItems    int64
	stolenCycles      int64
	sloViolations     int64
	lastReclaimCycles int64
	maxReclaimCycles  int64
}

// Lease is a grant of exclusive compute use of one fabric partition. It
// stays valid until Release; once Preempted reports true the arbiter wants
// the partition back for traffic, and the holder must stop at its next work
// item boundary and Release.
type Lease struct {
	arb       *Arbiter
	part      int
	preempted bool
}

// Partition returns the index of the granted partition.
func (l *Lease) Partition() int { return l.part }

// Preempted reports whether the arbiter has reclaimed the fabric since the
// grant; holders check it between work items.
func (l *Lease) Preempted() bool {
	l.arb.mu.Lock()
	defer l.arb.mu.Unlock()
	return l.preempted
}

// New builds an arbiter over cfg.Partitions partitions, starting in
// ModeIdle (no traffic observed yet, no leases outstanding).
func New(cfg Config) (*Arbiter, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Arbiter{
		cfg:    cfg,
		mode:   ModeIdle,
		leases: make([]*Lease, cfg.Partitions),
		det:    newIdleDetector(cfg),
	}, nil
}

// TryAcquire is the one grant predicate: it leases the lowest-numbered free
// partition when the fabric is in idle or compute mode, and refuses
// otherwise. It never blocks; a refused caller asks again on a later cycle.
func (a *Arbiter) TryAcquire() (*Lease, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.mode != ModeIdle && a.mode != ModeCompute {
		return nil, false
	}
	part := -1
	for i, l := range a.leases {
		if l == nil {
			part = i
			break
		}
	}
	if part < 0 {
		return nil, false
	}
	l := &Lease{arb: a, part: part}
	a.leases[part] = l
	a.active++
	a.c.leasesGranted++
	if a.mode == ModeIdle {
		a.setModeLocked(ModeCompute)
	}
	return l, true
}

func (a *Arbiter) setModeLocked(m Mode) {
	if a.mode == m {
		return
	}
	a.mode = m
	a.c.modeTransitions++
}

// Release returns the lease's partition to the arbiter. It is idempotent.
// Releasing the last outstanding lease completes a reclaim (reclaiming →
// traffic, recording the reclaim duration against the cycle-budget SLO) or
// returns the fabric to idle.
func (l *Lease) Release() {
	a := l.arb
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.leases[l.part] != l {
		return
	}
	a.leases[l.part] = nil
	a.active--
	if l.preempted {
		a.c.leasesReclaimed++
	}
	if a.active == 0 {
		switch a.mode {
		case ModeReclaiming:
			d := a.cycle - a.reclaimStart
			a.c.lastReclaimCycles = d
			if d > a.c.maxReclaimCycles {
				a.c.maxReclaimCycles = d
			}
			a.setModeLocked(ModeTraffic)
		case ModeCompute:
			a.setModeLocked(ModeIdle)
		}
	}
}

// Tick feeds one cycle of NoP telemetry — packets injected this cycle and
// current total endpoint buffer occupancy — and advances the state
// machine. Traffic demand always wins: busy during compute preempts every
// outstanding lease; idleness must persist MinIdleCycles before the fabric
// is handed back.
func (a *Arbiter) Tick(now int64, injected, occupancy int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cycle = now
	busy, idleRun := a.det.observe(injected, occupancy)
	switch a.mode {
	case ModeIdle:
		if busy {
			a.setModeLocked(ModeTraffic)
		}
	case ModeCompute:
		if busy {
			a.setModeLocked(ModeReclaiming)
			a.reclaimStart = now
			a.reclaimOverrun = false
			for _, l := range a.leases {
				if l != nil && !l.preempted {
					l.preempted = true
					a.c.leasesPreempted++
				}
			}
		}
	case ModeReclaiming:
		if !a.reclaimOverrun && now-a.reclaimStart > int64(a.cfg.ReclaimBudget) {
			a.reclaimOverrun = true
			a.c.sloViolations++
		}
	case ModeTraffic:
		if idleRun >= a.cfg.MinIdleCycles {
			a.setModeLocked(ModeIdle)
		}
	}
	if a.mode == ModeReclaiming || a.mode == ModeTraffic {
		// Partition-cycles denied to compute while traffic owns (or is
		// taking back) the fabric.
		a.c.stolenCycles += int64(a.cfg.Partitions)
	}
}

// NotePreemptedItems records n compute work items that were re-queued
// because their partition's lease was preempted mid-job.
func (a *Arbiter) NotePreemptedItems(n int) {
	a.mu.Lock()
	a.c.preemptedItems += int64(n)
	a.mu.Unlock()
}

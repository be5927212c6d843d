package fabric

import (
	"context"
	"sync"
)

// Arbiter owns the fabric's partition registry and multiplexes it between
// NoP traffic and compute. All state is guarded by one mutex; Acquire
// blocks on a condition variable until the mode admits compute and a free
// partition exists, and Tick — driven once per simulated cycle by the NoP
// side — advances the idle-detector state machine and signals preemption.
type Arbiter struct {
	cfg Config

	mu   sync.Mutex
	cond *sync.Cond

	mode  Mode
	cycle int64

	leases    []*Lease // by partition; nil while the partition is free
	active    int      // leases outstanding
	quar      []bool
	quarCount int

	det            *idleDetector
	reclaimStart   int64
	reclaimOverrun bool
	closed         bool

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
	quarantines       int64
}

// Lease is a grant of exclusive compute use of one fabric partition. It
// stays valid until Release; Preempted signals (by channel close) that the
// arbiter wants the partition back for traffic, after which the holder
// must finish or re-queue its current work item and Release promptly.
type Lease struct {
	arb       *Arbiter
	part      int
	preempt   chan struct{}
	preempted bool
}

// Partition returns the index of the granted partition.
func (l *Lease) Partition() int { return l.part }

// Preempted returns a channel that is closed when the arbiter reclaims the
// fabric; holders poll it between work items.
func (l *Lease) Preempted() <-chan struct{} { return l.preempt }

// New builds an arbiter over cfg.Partitions partitions, starting in
// ModeIdle (no traffic observed yet, no leases outstanding).
func New(cfg Config) (*Arbiter, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	a := &Arbiter{
		cfg:    cfg,
		mode:   ModeIdle,
		leases: make([]*Lease, cfg.Partitions),
		quar:   make([]bool, cfg.Partitions),
		det:    newIdleDetector(cfg),
	}
	a.cond = sync.NewCond(&a.mu)
	return a, nil
}

// Partitions returns the number of partitions under arbitration.
func (a *Arbiter) Partitions() int { return a.cfg.Partitions }

// Config returns the effective configuration (defaults filled in).
func (a *Arbiter) Config() Config { return a.cfg }

// Mode returns the current arbitration mode.
func (a *Arbiter) Mode() Mode {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.mode
}

// ComputeAvailable reports whether the arbiter is currently willing to
// grant (or keep granting) compute leases — i.e. the fabric has not been
// claimed for traffic. A serving layer uses this as its capacity signal:
// false means new work should be shed with backpressure rather than queued
// behind a stalled fabric.
func (a *Arbiter) ComputeAvailable() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.mode == ModeIdle || a.mode == ModeCompute
}

// Acquire blocks until the arbiter grants a compute lease on a free
// partition or ctx is cancelled. Grants are refused while the fabric is in
// traffic or reclaiming mode; callers park here until the idle detector
// re-opens the window.
func (a *Arbiter) Acquire(ctx context.Context) (*Lease, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	stop := context.AfterFunc(ctx, func() {
		a.mu.Lock()
		a.cond.Broadcast()
		a.mu.Unlock()
	})
	defer stop()

	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		if a.closed {
			return nil, ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if l, ok := a.tryGrantLocked(); ok {
			return l, nil
		}
		a.cond.Wait()
	}
}

// TryAcquire grants a compute lease without blocking: it succeeds exactly
// when Acquire would return a lease at once — the arbiter is open, the
// fabric is in idle or compute mode, and a partition is free and not
// quarantined.
func (a *Arbiter) TryAcquire() (*Lease, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tryGrantLocked()
}

// tryGrantLocked is the one grant predicate: it leases the lowest-numbered
// partition that is both free and not quarantined by the health layer,
// when the arbiter is open and the mode admits compute.
func (a *Arbiter) tryGrantLocked() (*Lease, bool) {
	if a.closed || (a.mode != ModeIdle && a.mode != ModeCompute) {
		return nil, false
	}
	part := -1
	for i, l := range a.leases {
		if l == nil && !a.quar[i] {
			part = i
			break
		}
	}
	if part < 0 {
		return nil, false
	}
	l := &Lease{arb: a, part: part, preempt: make(chan struct{})}
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
	// Wake Acquire callers on every mode edge.
	a.cond.Broadcast()
}

// SetQuarantine marks a partition unfit (or fit again) for compute. A
// quarantined partition is never granted to new leases; an outstanding
// lease on it stays valid until released. The health layer calls this when
// calibration probes fail and again after successful recalibration.
func (a *Arbiter) SetQuarantine(part int, on bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if part < 0 || part >= a.cfg.Partitions || a.quar[part] == on {
		return
	}
	a.quar[part] = on
	if on {
		a.quarCount++
		a.c.quarantines++
	} else {
		a.quarCount--
	}
	a.cond.Broadcast()
}

// Quarantined reports whether the partition is currently quarantined.
func (a *Arbiter) Quarantined(part int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return part >= 0 && part < a.cfg.Partitions && a.quar[part]
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
	a.cond.Broadcast()
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
					close(l.preempt)
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
			a.cond.Broadcast()
		}
	}
	if a.mode == ModeReclaiming || a.mode == ModeTraffic {
		// Partition-cycles denied to compute while traffic owns (or is
		// taking back) the fabric.
		a.c.stolenCycles += int64(a.cfg.Partitions)
	}
}

// NotePreemptedItems records n compute work items that were re-queued
// because their partition's lease was preempted mid-call.
func (a *Arbiter) NotePreemptedItems(n int) {
	a.mu.Lock()
	a.c.preemptedItems += int64(n)
	a.mu.Unlock()
}

// HeldPartitions returns the indices of partitions currently under compute
// lease — the ports a NoP driver must withdraw from the communication
// pool.
func (a *Arbiter) HeldPartitions() []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	held := make([]int, 0, a.active)
	for i, l := range a.leases {
		if l != nil {
			held = append(held, i)
		}
	}
	return held
}

// Close refuses all future grants and wakes every blocked Acquire with
// ErrClosed. Outstanding leases remain valid until released.
func (a *Arbiter) Close() {
	a.mu.Lock()
	a.closed = true
	a.cond.Broadcast()
	a.mu.Unlock()
}

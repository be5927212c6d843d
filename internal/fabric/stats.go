package fabric

// Stats is a read-only snapshot of the arbiter's observable state and
// counters, taken between ticks by the loop that drives the arbiter.
type Stats struct {
	// Mode is the arbitration mode at snapshot time; Cycle the last cycle
	// fed through Tick.
	Mode  Mode
	Cycle int64
	// Partitions is the arbitrated partition count; ActiveLeases and
	// FreePartitions its current split.
	Partitions     int
	ActiveLeases   int
	FreePartitions int
	// ModeTransitions counts state-machine edges; LeasesGranted all
	// grants; LeasesPreempted leases that received a preemption signal;
	// LeasesReclaimed preempted leases whose partition has been returned.
	ModeTransitions int64
	LeasesGranted   int64
	LeasesPreempted int64
	LeasesReclaimed int64
	// PreemptedItems counts compute work items re-queued by preemption
	// (reported by the lease holder via NotePreemptedItems).
	PreemptedItems int64
	// ComputeCyclesStolen accumulates partition-cycles unavailable to
	// compute while the fabric was reclaiming or carrying traffic.
	ComputeCyclesStolen int64
	// ReclaimSLOViolations counts reclaims that overran the configured
	// cycle budget; Last/MaxReclaimCycles record observed reclaim
	// latencies.
	ReclaimSLOViolations int64
	LastReclaimCycles    int64
	MaxReclaimCycles     int64
	// InjectionRate is the idle detector's current windowed rate
	// (packets/node/cycle).
	InjectionRate float64
}

// Stats returns a consistent snapshot of modes, lease occupancy and
// counters.
func (a *Arbiter) Stats() Stats {
	return Stats{
		Mode:                 a.mode,
		Cycle:                a.cycle,
		Partitions:           a.cfg.Partitions,
		ActiveLeases:         a.active,
		FreePartitions:       a.cfg.Partitions - a.active,
		ModeTransitions:      a.c.modeTransitions,
		LeasesGranted:        a.c.leasesGranted,
		LeasesPreempted:      a.c.leasesPreempted,
		LeasesReclaimed:      a.c.leasesReclaimed,
		PreemptedItems:       a.c.preemptedItems,
		ComputeCyclesStolen:  a.c.stolenCycles,
		ReclaimSLOViolations: a.c.sloViolations,
		LastReclaimCycles:    a.c.lastReclaimCycles,
		MaxReclaimCycles:     a.c.maxReclaimCycles,
		InjectionRate:        a.det.rate(),
	}
}

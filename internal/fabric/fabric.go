// Package fabric is the dynamic fabric arbiter: the piece that makes the
// Flumen MZIM genuinely dual-purpose. The paper's defining claim (Sec 3.2,
// 3.4) is that the photonic interconnect carries chiplet traffic when
// loaded and is re-partitioned into SVD compute sub-meshes when idle. The
// arbiter owns the partition registry and multiplexes MZIM sub-meshes
// between the two sides of one simulated clock:
//
//   - the cycle-driven NoP simulator (traffic mode), which feeds the idle
//     detector a sliding window of per-cycle injection and buffer-occupancy
//     telemetry through Tick, and
//   - compute (compute mode), which takes partitions without blocking
//     through TryAcquire in the same loop and yields them at block-item
//     granularity once a lease reports Preempted (see internal/fabricrun).
//
// The state machine is idle → compute-leased → reclaiming → traffic
// (→ idle): traffic demand always wins — when the idle detector asserts
// busy while compute holds leases, every lease is preempted and the
// arbiter counts cycles until the fabric is fully reclaimed, checking the
// configured cycle-budget SLO. Hysteresis (MinIdleCycles) keeps the fabric
// from thrashing between modes at moderate loads.
package fabric

import "fmt"

// Mode is the arbiter's fabric-ownership state.
type Mode int32

const (
	// ModeIdle: no traffic demand and no compute leases outstanding;
	// compute grants are available immediately.
	ModeIdle Mode = iota
	// ModeCompute: at least one compute lease is active and the
	// interconnect is still idle.
	ModeCompute
	// ModeReclaiming: traffic demand arrived while compute held leases;
	// preemption has been signalled on every lease and the arbiter is
	// counting cycles until the fabric is fully returned.
	ModeReclaiming
	// ModeTraffic: the fabric carries NoP traffic; compute grants are
	// refused until the idle detector re-opens the window.
	ModeTraffic
)

func (m Mode) String() string {
	switch m {
	case ModeIdle:
		return "idle"
	case ModeCompute:
		return "compute-leased"
	case ModeReclaiming:
		return "reclaiming"
	case ModeTraffic:
		return "traffic"
	}
	return fmt.Sprintf("mode(%d)", int32(m))
}

// Config parameterizes the arbiter. The zero value of every field except
// Partitions and Nodes picks a sensible default.
type Config struct {
	// Partitions is the number of compute partitions the fabric is carved
	// into (flumen.Accelerator.NumPartitions()).
	Partitions int
	// Nodes is the NoP endpoint count feeding telemetry; injection rates
	// are normalized per node per cycle.
	Nodes int

	// IdleWindow is the sliding-window length, in cycles, over which the
	// injection rate is averaged (default 64).
	IdleWindow int
	// IdleThreshold is the windowed injection rate (packets/node/cycle)
	// below which a cycle counts toward idleness (default 0.02).
	IdleThreshold float64
	// BusyThreshold is the windowed injection rate at or above which
	// traffic demand is asserted; must be ≥ IdleThreshold — the band
	// between the two is the hysteresis dead zone (default 0.05).
	BusyThreshold float64
	// OccupancyPatience is how many consecutive cycles endpoint buffers
	// may stay non-empty before queued-but-undelivered traffic alone
	// asserts busy, so a burst that already stopped injecting still
	// reclaims the fabric its packets need (default 32).
	OccupancyPatience int
	// MinIdleCycles is how many consecutive idle cycles must elapse in
	// traffic mode before the fabric is released back to compute — the
	// hysteresis that prevents mode thrash (default 128).
	MinIdleCycles int
	// ReclaimBudget is the cycle-budget SLO for reclamation: if the fabric
	// is not fully returned within this many cycles of preemption being
	// signalled, a violation is counted (default 5000).
	ReclaimBudget int
}

// withDefaults fills zero fields with the documented defaults.
func (c Config) withDefaults() Config {
	if c.IdleWindow <= 0 {
		c.IdleWindow = 64
	}
	if c.IdleThreshold <= 0 {
		c.IdleThreshold = 0.02
	}
	if c.BusyThreshold <= 0 {
		c.BusyThreshold = 0.05
	}
	if c.OccupancyPatience <= 0 {
		c.OccupancyPatience = 32
	}
	if c.MinIdleCycles <= 0 {
		c.MinIdleCycles = 128
	}
	if c.ReclaimBudget <= 0 {
		c.ReclaimBudget = 5000
	}
	return c
}

func (c Config) validate() error {
	if c.Partitions < 1 {
		return fmt.Errorf("fabric: need at least one partition, got %d", c.Partitions)
	}
	if c.Nodes < 1 {
		return fmt.Errorf("fabric: need at least one telemetry node, got %d", c.Nodes)
	}
	if c.BusyThreshold < c.IdleThreshold {
		return fmt.Errorf("fabric: busy threshold %g below idle threshold %g (hysteresis band would invert)",
			c.BusyThreshold, c.IdleThreshold)
	}
	return nil
}

package energy

import "sync"

// Meter is a thread-safe accumulator for photonic compute energy and the
// programming/batch counters. The accelerator's parallel engine merges
// per-work-item contributions into one Meter in a deterministic order, so
// the totals are exact (not merely approximately summed) regardless of the
// worker count.
type Meter struct {
	mu       sync.Mutex
	energyPJ float64
	programs int64
	batches  int64
}

// Add accumulates pj picojoules plus program and batch counts atomically
// with respect to other Meter calls.
func (m *Meter) Add(pj float64, programs, batches int64) {
	m.mu.Lock()
	m.energyPJ += pj
	m.programs += programs
	m.batches += batches
	m.mu.Unlock()
}

// EnergyPJ returns the accumulated energy.
func (m *Meter) EnergyPJ() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.energyPJ
}

// Counts returns the accumulated program and batch counters.
func (m *Meter) Counts() (programs, batches int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.programs, m.batches
}

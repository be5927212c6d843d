package energy

import (
	"sync"
	"testing"
)

// TestMeterConcurrentExact checks the meter's totals are exact when many
// goroutines accumulate identical contributions (run under -race in CI).
func TestMeterConcurrentExact(t *testing.T) {
	var m Meter
	const goroutines = 32
	const adds = 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				m.Add(1.5, 1, 2)
			}
		}()
	}
	wg.Wait()
	programs, batches := m.Counts()
	if programs != goroutines*adds || batches != 2*goroutines*adds {
		t.Fatalf("counts (%d,%d), want (%d,%d)", programs, batches, goroutines*adds, 2*goroutines*adds)
	}
	// 1.5 is exactly representable, so the float sum is exact too.
	if e := m.EnergyPJ(); e != 1.5*goroutines*adds {
		t.Fatalf("energy %v, want %v", e, 1.5*goroutines*adds)
	}
	m.Reset()
	if e := m.EnergyPJ(); e != 0 {
		t.Fatalf("energy after Reset = %v", e)
	}
	if p, b := m.Counts(); p != 0 || b != 0 {
		t.Fatalf("counts after Reset = (%d,%d)", p, b)
	}
}

func TestMeterAddEnergyPJ(t *testing.T) {
	var m Meter
	m.AddEnergyPJ(2)
	m.AddEnergyPJ(3)
	if e := m.EnergyPJ(); e != 5 {
		t.Fatalf("energy %v, want 5", e)
	}
	if p, b := m.Counts(); p != 0 || b != 0 {
		t.Fatalf("AddEnergyPJ changed counts: (%d,%d)", p, b)
	}
}

// Reset zeroes the meter.
func (m *Meter) Reset() {
	m.mu.Lock()
	m.energyPJ = 0
	m.programs = 0
	m.batches = 0
	m.mu.Unlock()
}

package energy

// ElecMACTimeNS returns the electrical time to execute the given MACs on
// `cores` cores with the configured per-core MAC cost.
func (p Params) ElecMACTimeNS(macs int64, cores int) float64 {
	cycles := float64(macs) * float64(p.CyclesPerMAC) / float64(cores)
	return cycles / p.CoreClockGHz
}

// AddEnergyPJ accumulates energy only.
func (m *Meter) AddEnergyPJ(pj float64) {
	m.mu.Lock()
	m.energyPJ += pj
	m.mu.Unlock()
}

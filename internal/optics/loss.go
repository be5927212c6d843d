package optics

import (
	"fmt"
	"math"
)

// This file implements optical loss budgets and laser power sizing. Laser
// power depends exponentially on the worst-case path loss of the photonic
// interconnect (Sec 5.2): the OptBus worst-case loss scales with k·p (k
// routers, p wavelengths — every wavelength's MRR on every router loads the
// shared waveguide), while the Flumen MZIM loss scales with k/2 + 2p (the
// routed path crosses about half the mesh columns, plus the p modulator and
// p demultiplexer rings at the endpoints).

// DBToPowerRatio converts a dB value to a linear power ratio (loss in
// positive dB gives a ratio > 1 to compensate).
func DBToPowerRatio(db float64) float64 { return math.Pow(10, db/10) }

// DBmToMW converts absolute optical power in dBm to mW.
func DBmToMW(dbm float64) float64 { return math.Pow(10, dbm/10) }

// LossBudget accumulates component losses along an optical path.
type LossBudget struct {
	components []lossComponent
	totalDB    float64
}

type lossComponent struct {
	name   string
	count  int
	eachDB float64
}

// Add appends count instances of a component with the given per-instance
// loss in dB.
func (b *LossBudget) Add(name string, count int, eachDB float64) {
	if count < 0 || eachDB < 0 {
		panic(fmt.Sprintf("optics: invalid loss component %q count=%d loss=%g", name, count, eachDB))
	}
	b.components = append(b.components, lossComponent{name, count, eachDB})
	b.totalDB += float64(count) * eachDB
}

// TotalDB returns the accumulated loss in dB.
func (b *LossBudget) TotalDB() float64 { return b.totalDB }

// String renders the budget as a table for reports.
func (b *LossBudget) String() string {
	s := ""
	for _, c := range b.components {
		s += fmt.Sprintf("%-24s %4d × %5.2f dB = %6.2f dB\n", c.name, c.count, c.eachDB, float64(c.count)*c.eachDB)
	}
	s += fmt.Sprintf("%-24s %21.2f dB\n", "total", b.totalDB)
	return s
}

// OptBusWorstCaseLossDB returns the worst-case path loss of an optical bus
// with k routers and p wavelengths: the farthest signal passes the
// non-resonant thru port of all p MRRs at each of the k routers, plus the
// waveguide run and a final drop.
func OptBusWorstCaseLossDB(d DeviceParams, k, p int, waveguideCM float64) float64 {
	var b LossBudget
	b.Add("MRR thru (k·p)", k*p, d.MRRThruLossDB)
	b.Add("MRR drop", 1, d.MRRDropLossDB)
	b.Add("waveguide", 1, d.WaveguideStraightLossDBcm*waveguideCM)
	return b.TotalDB()
}

// FlumenWorstCaseLossDB returns the worst-case path loss of a k-endpoint
// Flumen MZIM with p wavelengths: approximately k/2 mesh MZIs on the
// longest routed path plus one attenuator MZI, and 2·p endpoint MRR passes
// (p modulators at the source, p demultiplexers at the destination), plus
// the waveguide run.
func FlumenWorstCaseLossDB(d DeviceParams, k, p int, waveguideCM float64) float64 {
	var b LossBudget
	b.Add("mesh MZIs (k/2)", k/2, d.MZIInsertionLossDB())
	b.Add("attenuator MZI", 1, d.MZIInsertionLossDB())
	b.Add("endpoint MRRs (2p)", 2*p, d.MRRThruLossDB)
	b.Add("MRR drop", 1, d.MRRDropLossDB)
	b.Add("waveguide", 1, d.WaveguideStraightLossDBcm*waveguideCM)
	return b.TotalDB()
}

// LaserPowerMW sizes the total electrical laser power for a photonic
// interconnect: each of the p wavelengths must deliver at least the
// photodiode sensitivity after the worst-case loss, divided by the laser's
// wall-plug efficiency.
func LaserPowerMW(d DeviceParams, worstCaseLossDB float64, p int) float64 {
	perLambdaOpticalMW := DBmToMW(d.PDSensitivityDBm) * DBToPowerRatio(worstCaseLossDB)
	return float64(p) * perLambdaOpticalMW / d.LaserOWPE
}

// OptBusLaserPowerMW sizes the OptBus laser (Fig. 12a).
func OptBusLaserPowerMW(d DeviceParams, k, p int, waveguideCM float64) float64 {
	return LaserPowerMW(d, OptBusWorstCaseLossDB(d, k, p, waveguideCM), p)
}

// FlumenLaserPowerMW sizes the Flumen MZIM laser (Fig. 12a).
func FlumenLaserPowerMW(d DeviceParams, k, p int, waveguideCM float64) float64 {
	return LaserPowerMW(d, FlumenWorstCaseLossDB(d, k, p, waveguideCM), p)
}

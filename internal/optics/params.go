// Package optics models the physical layer of the Flumen photonic fabric:
// device parameters (Table 2 of the paper), optical loss accumulation in
// dB, worst-case-path laser power sizing, WDM link bandwidth/energy
// (Table 1), photodetection, and the DAC/ADC quantization that limits the
// analog computation to 8-bit equivalent precision.
package optics

// DeviceParams collects the photonic and supporting electronic device
// parameters of Table 2. All losses are positive dB, powers in mW unless
// noted.
type DeviceParams struct {
	// Waveguide losses, dB per cm.
	WaveguideStraightLossDBcm float64
	WaveguideBentLossDBcm     float64
	// Y-branch splitter loss, dB.
	YBranchLossDB float64
	// Microring resonator (MRR).
	MRRRadiusUm     float64
	MRRThruLossDB   float64 // per non-resonant pass
	MRRDropLossDB   float64 // per resonant drop
	MRRModulationMW float64
	MRRDriverMW     float64
	MRRThermalMW    float64
	// Mach-Zehnder interferometer.
	MZIPhaseShifterNW     float64 // phase shifter hold power, nW
	MZIPhaseShifterLossDB float64
	MZICouplerLossDB      float64 // per 3-dB coupler (2 per MZI)
	// Photodiode.
	PDSensitivityDBm float64 // minimum detectable optical power
	PDDarkCurrentPA  float64
	PDExtinctionDB   float64
	// Off-chip laser.
	LaserOWPE  float64 // optical wall-plug efficiency
	LaserRINdB float64 // relative intensity noise, dBc/Hz
	// Converters and analog front end.
	ADCPowerMW    float64
	DACPowerMW    float64
	TIAPowerUW    float64
	SerDesPowerMW float64
}

// DefaultDevices returns the Table 2 parameter set. The photodiode
// sensitivity is interpreted as -20 dBm (the table lists its magnitude).
func DefaultDevices() DeviceParams {
	return DeviceParams{
		WaveguideStraightLossDBcm: 1.5,
		WaveguideBentLossDBcm:     3.8,
		YBranchLossDB:             0.3,
		MRRRadiusUm:               5,
		MRRThruLossDB:             0.1,
		MRRDropLossDB:             1,
		MRRModulationMW:           0.5,
		MRRDriverMW:               1,
		MRRThermalMW:              1,
		MZIPhaseShifterNW:         1,
		MZIPhaseShifterLossDB:     0.23,
		MZICouplerLossDB:          0.02,
		PDSensitivityDBm:          -20,
		PDDarkCurrentPA:           25,
		PDExtinctionDB:            7,
		LaserOWPE:                 0.2,
		LaserRINdB:                -140,
		ADCPowerMW:                29,
		DACPowerMW:                50,
		TIAPowerUW:                295,
		SerDesPowerMW:             1.3,
	}
}

// MZIInsertionLossDB returns the loss of a single MZI pass: one phase
// shifter plus two 3-dB couplers.
func (d DeviceParams) MZIInsertionLossDB() float64 {
	return d.MZIPhaseShifterLossDB + 2*d.MZICouplerLossDB
}

// LinkParams collects the Table 1 interconnect parameters.
type LinkParams struct {
	// Electrical NoP link (Poulton et al. GRS).
	ElecLinkEnergyPJPerBit float64
	ElecLinkBandwidthGbps  float64
	// Photonic NoP link.
	PhotonicEnergyPJPerBit float64 // at 64 wavelengths
	ModulationGHz          float64
	Wavelengths            int
	// Flumen computation parameters.
	ComputeWavelengths  int
	InputModulationGHz  float64
	MZIMSwitchDelayNS   float64
	EquivalentPrecision int
	// Communication-mode MZI phase programming latency (Sec 4.1).
	CommProgramNS float64
}

// DefaultLink returns the Table 1 link/compute parameter set.
func DefaultLink() LinkParams {
	return LinkParams{
		ElecLinkEnergyPJPerBit: 1.17,
		ElecLinkBandwidthGbps:  800,
		PhotonicEnergyPJPerBit: 0.703,
		ModulationGHz:          10,
		Wavelengths:            64,
		ComputeWavelengths:     8,
		InputModulationGHz:     5,
		MZIMSwitchDelayNS:      6,
		EquivalentPrecision:    8,
		CommProgramNS:          1,
	}
}

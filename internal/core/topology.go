package core

import (
	"fmt"

	"flumen/internal/energy"
	"flumen/internal/noc"
)

// TopologyKind selects one of the evaluated NoP designs (Fig. 10), plus the
// two Flumen operating modes of Sec 5.4.
type TopologyKind int

const (
	// TopoRing is the electrical bidirectional ring.
	TopoRing TopologyKind = iota
	// TopoMesh is the electrical 4×4 mesh.
	TopoMesh
	// TopoOptBus is the shared-waveguide optical bus.
	TopoOptBus
	// TopoFlumenI is the Flumen MZIM used for communication only.
	TopoFlumenI
	// TopoFlumenA is the Flumen MZIM with compute acceleration enabled.
	TopoFlumenA
)

// String names the topology as in the paper's figures.
func (t TopologyKind) String() string {
	switch t {
	case TopoRing:
		return "Ring"
	case TopoMesh:
		return "Mesh"
	case TopoOptBus:
		return "OptBus"
	case TopoFlumenI:
		return "Flumen-I"
	case TopoFlumenA:
		return "Flumen-A"
	}
	return fmt.Sprintf("TopologyKind(%d)", int(t))
}

// AllTopologies lists the five evaluated configurations in figure order.
func AllTopologies() []TopologyKind {
	return []TopologyKind{TopoRing, TopoMesh, TopoOptBus, TopoFlumenI, TopoFlumenA}
}

// NetworkParams sizes the NoPs for matched bisection bandwidth (Sec 4.1:
// 5.6 Tbps electrical, 5.1 Tbps photonic at a 2.5 GHz system clock).
type NetworkParams struct {
	Nodes           int
	RingWidthBits   int // 1.4 Tbps/link → 560 b/cycle
	MeshWidthBits   int // 800 Gbps/link → 320 b/cycle
	BusChannels     int
	BusWidthBits    int // 640 Gbps/channel → 256 b/cycle
	MZIMWidthBits   int
	MZIMSetupCycles int64
	BufPackets      int
}

// DefaultNetworkParams returns the Table 1 / Sec 4.1 sizing for 16 chiplets.
func DefaultNetworkParams() NetworkParams {
	return NetworkParams{
		Nodes:           16,
		RingWidthBits:   560,
		MeshWidthBits:   320,
		BusChannels:     8,
		BusWidthBits:    256,
		MZIMWidthBits:   256,
		MZIMSetupCycles: 3,
		BufPackets:      4,
	}
}

// BuildNetwork constructs the NoP for a topology. Both Flumen modes use
// the same MZIM fabric.
func BuildNetwork(kind TopologyKind, np NetworkParams) noc.Network {
	switch kind {
	case TopoRing:
		return noc.NewRing(np.Nodes, np.RingWidthBits, np.BufPackets)
	case TopoMesh:
		side := isqrt(np.Nodes)
		if side*side != np.Nodes {
			panic(fmt.Sprintf("core: mesh needs a square node count, got %d", np.Nodes))
		}
		return noc.NewMesh(side, side, np.MeshWidthBits, np.BufPackets)
	case TopoOptBus:
		return noc.NewOptBus(np.Nodes, np.BusChannels, np.BusWidthBits)
	case TopoFlumenI, TopoFlumenA:
		return noc.NewMZIM(np.Nodes, np.MZIMWidthBits, np.MZIMSetupCycles)
	}
	panic("core: unknown topology")
}

func isqrt(n int) int {
	for i := 1; i*i <= n; i++ {
		if i*i == n {
			return i
		}
	}
	return 0
}

// NoPEnergyPJ computes the interconnect energy of Fig. 13's NoP component:
// dynamic per-bit transfer energy plus topology-specific static power
// integrated over the run time. For Flumen, the always-powered DAC/ADC
// converters are included even when no acceleration runs — the reason
// Flumen-I consumes slightly more network energy than OptBus (Sec 5.2).
// computePJ adds the MZIM computation energy (Flumen-A only).
func NoPEnergyPJ(kind TopologyKind, c noc.Counters, seconds float64, nodes int, p energy.Params, computePJ float64) float64 {
	secToPJ := seconds * 1e9 // mW × s → pJ is ×1e9
	switch kind {
	case TopoRing:
		dyn := float64(c.BitHops) * (p.RingLinkPJPerBit + p.RouterPJPerBit)
		static := float64(nodes) * p.RouterLeakageMW * secToPJ
		return dyn + static
	case TopoMesh:
		dyn := float64(c.BitHops) * (p.ElecLinkPJPerBit + p.RouterPJPerBit)
		static := float64(nodes) * p.RouterLeakageMW * secToPJ
		return dyn + static
	case TopoOptBus:
		dyn := float64(c.PhotonicBits) * p.PhotonicPJPerBit
		staticMW := p.OptBusLaserMW + float64(nodes)*(p.ThermalTuningMW+p.TIAPerEndpointMW+p.SerDesPerEndpointMW)
		return dyn + staticMW*secToPJ
	case TopoFlumenI, TopoFlumenA:
		dyn := float64(c.PhotonicBits) * p.PhotonicPJPerBit
		staticMW := p.FlumenLaserMW + p.FlumenConverterMW +
			float64(nodes)*(p.ThermalTuningMW+p.TIAPerEndpointMW+p.SerDesPerEndpointMW)
		return dyn + staticMW*secToPJ + computePJ
	}
	panic("core: unknown topology")
}

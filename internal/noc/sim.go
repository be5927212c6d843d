package noc

import (
	"fmt"
	"math/rand"
	"slices"
)

// RunConfig parameterizes a synthetic-traffic run.
type RunConfig struct {
	PacketBits    int   // payload + header bits per packet
	WarmupCycles  int64 // not measured
	MeasureCycles int64 // packets generated here are measured
	DrainCycles   int64 // extra cycles to let measured packets finish
	Seed          int64
	ClockGHz      float64 // for Gbps conversions

	// StepAt holds the offered load at zero until this cycle: no packet is
	// generated, and no generation draw made, before it. fabricrun's
	// idle→busy step scenario sets it; a sweep leaves it 0.
	StepAt int64

	// OnCycle, when set, is invoked after every network step with the cycle
	// just simulated. fabricrun.Run is its client: it samples the MZIM's
	// per-cycle telemetry (injections, buffer occupancy), ticks a fabric
	// arbiter with it and settles compute in lockstep with the run.
	OnCycle func(now int64, net Network)
}

// DefaultRunConfig returns the standard configuration: 640-bit packets
// (64 B cache line plus header) on a 2.5 GHz system clock.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		PacketBits:    640,
		WarmupCycles:  2000,
		MeasureCycles: 10000,
		DrainCycles:   20000,
		Seed:          1,
		ClockGHz:      2.5,
	}
}

// RunResult summarizes one synthetic-traffic run at a fixed offered load.
type RunResult struct {
	Topology        string
	PatternName     string
	InjectRate      float64 // packets per node per cycle (offered)
	OfferedGbps     float64 // per node
	AvgLatency      float64 // cycles, measured packets
	P50Latency      int64
	P99Latency      int64
	MaxLatency      int64
	DeliveredPkts   int64
	Saturated       bool
	AcceptedGbps    float64 // per node, over the measure window
	LinkUtilization float64
	Counters        Counters
	ElapsedCycles   int64

	// MeasuredDelivered counts the measured packets that arrived, and
	// Undelivered those still on their way when the run ended (charged at
	// their age in the latencies). Both are left out of JSON: the NoP
	// goldens and the benchmark's sim digests hash json.Marshal(RunResult),
	// and a new marshalled field would move every digest.
	MeasuredDelivered int64 `json:"-"`
	Undelivered       int64 `json:"-"`
}

// String renders one sweep row.
func (r RunResult) String() string {
	sat := ""
	if r.Saturated {
		sat = " (saturated)"
	}
	return fmt.Sprintf("%-8s %-8s load=%6.1f Gbps/node  lat=%8.1f cyc  util=%5.1f%%%s",
		r.Topology, r.PatternName, r.OfferedGbps, r.AvgLatency, 100*r.LinkUtilization, sat)
}

// RunSynthetic drives a network with Bernoulli packet generation at
// injectRate packets/node/cycle under the given pattern and reports average
// packet latency over the measurement window. Saturation is reported when
// source queues grow without bound or measured packets fail to drain.
func RunSynthetic(net Network, pat Pattern, injectRate float64, cfg RunConfig) RunResult {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := net.Nodes()
	srcQ := make([]fifo[*Packet], n) // unbounded source-side queues
	var nextID int64
	var deliveredMeasured int64
	var latSum, latMax int64
	var measuredBits int64
	genStart := cfg.WarmupCycles
	genEnd := cfg.WarmupCycles + cfg.MeasureCycles

	// Measured packets are generated back to back, so their IDs are
	// consecutive: genCycle[id-firstMeasured] is the generation cycle of a
	// measured packet still on its way, -1 once it has arrived.
	expect := max(0, int(min(injectRate, 1)*float64(n)*float64(cfg.MeasureCycles)*1.05)) + 16
	genCycle := make([]int64, 0, expect)
	latencies := make([]int64, 0, expect)
	var firstMeasured int64
	outstanding := 0
	net.SetSink(func(p *Packet, now int64) {
		i := p.ID - firstMeasured
		if i < 0 || i >= int64(len(genCycle)) || genCycle[i] < 0 {
			return
		}
		lat := now - genCycle[i]
		genCycle[i] = -1
		outstanding--
		latSum += lat
		latencies = append(latencies, lat)
		if lat > latMax {
			latMax = lat
		}
		deliveredMeasured++
		measuredBits += int64(p.Bits)
	})

	total := cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainCycles
	saturated := false
	var cycle int64
	for cycle = 0; cycle < total; cycle++ {
		generating := cycle < genEnd
		if generating && cycle >= cfg.StepAt {
			for s := 0; s < n; s++ {
				if rng.Float64() < injectRate {
					p := &Packet{
						ID:   nextID,
						Src:  s,
						Dst:  pat.Dest(s, rng),
						Bits: cfg.PacketBits,
					}
					nextID++
					if cycle >= genStart {
						if len(genCycle) == 0 {
							firstMeasured = p.ID
						}
						genCycle = append(genCycle, cycle)
						outstanding++
					}
					srcQ[s].push(p)
				}
			}
		}
		// Drain source queues into the network.
		for s := 0; s < n; s++ {
			q := &srcQ[s]
			for q.len() > 0 && net.Inject(q.at(0), cycle) {
				q.pop()
			}
			if q.len() > 1000 {
				saturated = true
			}
		}
		net.Step(cycle)
		if cfg.OnCycle != nil {
			cfg.OnCycle(cycle, net)
		}
		if !generating && outstanding == 0 {
			cycle++
			break
		}
	}
	if outstanding > 0 {
		saturated = true
		// Charge undelivered measured packets at least their age so the
		// latency curve blows up visibly at saturation.
		for _, gen := range genCycle {
			if gen >= 0 {
				latSum += cycle - gen
				latencies = append(latencies, cycle-gen)
			}
		}
	}
	avg := 0.0
	var p50, p99 int64
	if len(latencies) > 0 {
		avg = float64(latSum) / float64(len(latencies))
		slices.Sort(latencies)
		p50 = latencies[len(latencies)/2]
		p99 = latencies[len(latencies)*99/100]
	}
	c := net.Counters()
	return RunResult{
		Topology:        net.Name(),
		PatternName:     pat.Name,
		InjectRate:      injectRate,
		OfferedGbps:     injectRate * float64(cfg.PacketBits) * cfg.ClockGHz,
		AvgLatency:      avg,
		P50Latency:      p50,
		P99Latency:      p99,
		MaxLatency:      latMax,
		DeliveredPkts:   c.DeliveredPackets,
		Saturated:       saturated,
		AcceptedGbps:    float64(measuredBits) / float64(cfg.MeasureCycles) * cfg.ClockGHz,
		LinkUtilization: c.LinkUtilization(cycle),
		Counters:        c,
		ElapsedCycles:   cycle,

		MeasuredDelivered: deliveredMeasured,
		Undelivered:       int64(outstanding),
	}
}

// LoadSweep runs a network factory across increasing injection rates and
// returns one result per load point, stopping two points after saturation
// is first observed (enough to draw the latency knee of Fig. 11).
func LoadSweep(mkNet func() Network, pat Pattern, rates []float64, cfg RunConfig) []RunResult {
	var out []RunResult
	satCount := 0
	for _, r := range rates {
		res := RunSynthetic(mkNet(), pat, r, cfg)
		out = append(out, res)
		if res.Saturated {
			satCount++
			if satCount >= 2 {
				break
			}
		}
	}
	return out
}

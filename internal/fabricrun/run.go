// Package fabricrun is the mixed-workload harness for the dynamic fabric
// arbiter: it drives the cycle-accurate MZIM NoP simulator, feeds its
// per-cycle telemetry to a fabric.Arbiter, and runs an opportunistic
// compute pump that steals the fabric through leases whenever the
// interconnect goes idle. The same harness (with Fabric nil and Compute
// off) produces the network-only baseline, so latency comparisons see
// identical packet-generation RNG draws.
package fabricrun

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flumen"
	"flumen/internal/fabric"
	"flumen/internal/noc"
)

// Options parameterizes one mixed-workload run.
type Options struct {
	// Ports and Block set the accelerator geometry (Ports/Block compute
	// partitions). Nodes is the NoP endpoint count; partitions map
	// one-to-one onto the first NumPartitions endpoint ports, which are
	// withdrawn from the communication pool while under compute lease.
	Ports int
	Block int
	Nodes int

	// WidthBits and SetupCycles configure the MZIM NoP (defaults from the
	// paper's Sec 4.1 parameters); PacketBits is the packet size.
	WidthBits   int
	SetupCycles int64
	PacketBits  int

	// Rate is the offered load in packets/node/cycle; Pattern the traffic
	// pattern (uniform by default).
	Rate    float64
	Pattern *noc.Pattern

	// Warmup/Measure/Drain are the simulation windows in cycles.
	Warmup  int64
	Measure int64
	Drain   int64
	Seed    int64

	// SliceCycles is how many cycles the simulator runs between
	// runtime.Gosched calls, so the compute pump gets scheduled even on a
	// single-CPU host (default 64).
	SliceCycles int

	// Fabric, when non-nil, attaches an arbiter with this configuration
	// (Partitions and Nodes are filled in from the geometry). Nil runs the
	// network-only baseline.
	Fabric *fabric.Config

	// Compute runs the opportunistic compute pump: repeated
	// ComputeDim×ComputeDim MatMuls under fabric leases (requires Fabric).
	Compute    bool
	ComputeDim int

	// StepAt, when positive, holds the offered load at zero until this
	// cycle and then steps it to Rate — the idle→busy transition that
	// exercises reclamation. The simulator waits at the step until the pump
	// actually holds leases, so the measurement always sees a real
	// preemption.
	StepAt int64
}

func (o Options) withDefaults() Options {
	if o.Ports == 0 {
		o.Ports = 64
	}
	if o.Block == 0 {
		o.Block = 8
	}
	if o.Nodes == 0 {
		o.Nodes = 16
	}
	if o.WidthBits == 0 {
		o.WidthBits = 256
	}
	if o.SetupCycles == 0 {
		o.SetupCycles = 3
	}
	if o.PacketBits == 0 {
		o.PacketBits = 640
	}
	if o.Warmup == 0 {
		o.Warmup = 2000
	}
	if o.Measure == 0 {
		o.Measure = 10000
	}
	if o.Drain == 0 {
		o.Drain = 20000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.SliceCycles == 0 {
		o.SliceCycles = 64
	}
	if o.ComputeDim == 0 {
		o.ComputeDim = 4 * o.Block
	}
	return o
}

// Result summarizes one mixed-workload run.
type Result struct {
	// Packet latency over the measurement window, in cycles.
	AvgLatency float64
	P50Latency int64
	P99Latency int64
	MaxLatency int64
	Delivered  int64
	Saturated  bool

	ElapsedCycles int64

	// ComputeOps counts MatMul calls the pump completed; Fabric is the
	// arbiter's final snapshot (nil for baseline runs). LeakedLeases is the
	// number of leases still outstanding after the pump shut down — always
	// zero for a correct engine. SteadyState reports that every measured
	// packet was delivered.
	ComputeOps   int64
	Fabric       *fabric.Stats
	LeakedLeases int
	SteadyState  bool
}

// Run executes one mixed-workload simulation.
func Run(o Options) (*Result, error) {
	o = o.withDefaults()
	pat := noc.Uniform(o.Nodes)
	if o.Pattern != nil {
		pat = *o.Pattern
	}
	net := noc.NewMZIM(o.Nodes, o.WidthBits, o.SetupCycles)

	var accel *flumen.Accelerator
	var arb *fabric.Arbiter
	if o.Fabric != nil {
		var err error
		accel, err = flumen.NewAccelerator(o.Ports, o.Block)
		if err != nil {
			return nil, err
		}
		if accel.NumPartitions() > o.Nodes {
			return nil, fmt.Errorf("fabricrun: %d partitions cannot map onto %d NoP ports",
				accel.NumPartitions(), o.Nodes)
		}
		fcfg := *o.Fabric
		fcfg.Partitions = accel.NumPartitions()
		fcfg.Nodes = o.Nodes
		if arb, err = fabric.New(fcfg); err != nil {
			return nil, err
		}
		if err = accel.AttachFabric(arb); err != nil {
			return nil, err
		}
	}

	// Opportunistic compute pump: steals the fabric whenever the arbiter
	// lets it, parks in Acquire whenever traffic owns it.
	var ops atomic.Int64
	pumpCtx, stopPump := context.WithCancel(context.Background())
	var pumpWG sync.WaitGroup
	if o.Compute && accel != nil {
		m, x := PumpMatrices(o.ComputeDim, o.Seed)
		pumpWG.Add(1)
		go func() {
			defer pumpWG.Done()
			for pumpCtx.Err() == nil {
				if _, err := accel.MatMulCtx(pumpCtx, m, x); err == nil {
					ops.Add(1)
				}
			}
		}()
	}
	defer func() {
		stopPump()
		pumpWG.Wait()
		if arb != nil {
			arb.Close()
		}
	}()

	rng := rand.New(rand.NewSource(o.Seed))
	srcQ := make([][]*noc.Packet, o.Nodes)
	var nextID int64
	var latSum, latMax int64
	var deliveredMeasured int64
	genStart := o.Warmup
	genEnd := o.Warmup + o.Measure
	measuredSet := make(map[int64]int64)
	var latencies []int64
	net.SetSink(func(p *noc.Packet, now int64) {
		if gen, ok := measuredSet[p.ID]; ok {
			lat := now - gen
			latSum += lat
			latencies = append(latencies, lat)
			if lat > latMax {
				latMax = lat
			}
			deliveredMeasured++
			delete(measuredSet, p.ID)
		}
	})

	total := o.Warmup + o.Measure + o.Drain
	saturated := false
	stepped := o.StepAt <= 0
	stepAt := o.StepAt
	stepRetries := 0
	var cycle int64
	for cycle = 0; cycle < total; cycle++ {
		if !stepped && cycle >= stepAt {
			stepped = true
			if arb != nil && o.Compute {
				// Hold the step until the pump actually holds the fabric, so
				// the idle→busy transition measures a real reclamation. The
				// arbiter broadcasts on every mode edge, so park on it rather
				// than polling; the timeout only bounds a pump that never
				// acquires.
				waitCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				_ = arb.Await(waitCtx, func(m fabric.Mode) bool { return m == fabric.ModeCompute })
				cancel()
			}
		}
		if stepped && stepAt > 0 && arb != nil && o.Compute && stepRetries < 20 &&
			arb.Mode() == fabric.ModeTraffic && arb.Stats().LeasesPreempted == 0 {
			// The burst landed in the pump's between-calls gap: traffic took
			// the fabric from idle with nothing to preempt. Back off to zero
			// load and re-step once the fabric has been handed back, so the
			// scenario always measures a real reclamation.
			stepped = false
			stepRetries++
			fc := arb.Config()
			stepAt = cycle + int64(fc.IdleWindow+fc.MinIdleCycles+32)
		}
		rate := o.Rate
		if !stepped {
			rate = 0
		}
		generating := cycle < genEnd
		if generating && rate > 0 {
			for s := 0; s < o.Nodes; s++ {
				if rng.Float64() < rate {
					p := &noc.Packet{
						ID:   nextID,
						Src:  s,
						Dst:  pat.Dest(s, rng),
						Bits: o.PacketBits,
					}
					nextID++
					if cycle >= genStart {
						measuredSet[p.ID] = cycle
					}
					srcQ[s] = append(srcQ[s], p)
				}
			}
		}
		for s := 0; s < o.Nodes; s++ {
			for len(srcQ[s]) > 0 && net.Inject(srcQ[s][0], cycle) {
				srcQ[s] = srcQ[s][1:]
			}
			if len(srcQ[s]) > 1000 {
				saturated = true
			}
		}
		net.Step(cycle)
		if arb != nil {
			inj, occ := net.CycleTelemetry()
			arb.Tick(cycle, inj, occ)
			ApplyPortWithdrawal(net, arb.HeldPartitions(), o.Nodes)
			if arb.Mode() == fabric.ModeReclaiming {
				// Throttle simulated time while reclaiming so the pump gets
				// real CPU time to notice preemption within a handful of
				// simulated cycles — without this, wall-clock item latency
				// would be charged at the free-running simulation rate. The
				// release of the last preempted lease broadcasts, so parking
				// on the arbiter resumes the instant reclamation completes;
				// the 20µs bound keeps cycles advancing (and reclaim latency
				// measured in simulated cycles) while the pump is still slow.
				waitCtx, cancel := context.WithTimeout(context.Background(), 20*time.Microsecond)
				_ = arb.Await(waitCtx, func(m fabric.Mode) bool { return m != fabric.ModeReclaiming })
				cancel()
			}
		}
		if cycle%int64(o.SliceCycles) == 0 {
			runtime.Gosched()
		}
		if stepped && !generating && len(measuredSet) == 0 {
			cycle++
			break
		}
	}
	delivered := deliveredMeasured
	if len(measuredSet) > 0 {
		saturated = true
		for _, gen := range measuredSet {
			latSum += cycle - gen
			latencies = append(latencies, cycle-gen)
			deliveredMeasured++
		}
	}

	res := &Result{
		MaxLatency:    latMax,
		Delivered:     delivered,
		Saturated:     saturated,
		ElapsedCycles: cycle,
		SteadyState:   len(measuredSet) == 0,
	}
	if deliveredMeasured > 0 {
		res.AvgLatency = float64(latSum) / float64(deliveredMeasured)
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		res.P50Latency = latencies[len(latencies)/2]
		res.P99Latency = latencies[len(latencies)*99/100]
	}

	// Shut the pump down before the final snapshot so LeakedLeases counts
	// genuinely stuck leases, not in-flight ones.
	stopPump()
	pumpWG.Wait()
	res.ComputeOps = ops.Load()
	if arb != nil {
		st := arb.Stats()
		res.Fabric = &st
		res.LeakedLeases = st.ActiveLeases
	}
	return res, nil
}

// ApplyPortWithdrawal maps compute-held partitions onto NoP ports:
// partition i occupies endpoint port i, withdrawn from the communication
// pool while under lease and restored otherwise.
func ApplyPortWithdrawal(net *noc.MZIMNet, held []int, nodes int) {
	for port := 0; port < nodes; port++ {
		net.SetPortAvailable(port, true)
	}
	for _, p := range held {
		if p < nodes {
			net.SetPortAvailable(p, false)
		}
	}
}

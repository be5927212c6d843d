// Package fabricrun is the mixed-workload harness for the dynamic fabric
// arbiter. It drives the cycle-accurate MZIM NoP with noc.RunSynthetic and,
// through the run's OnCycle hook, feeds each cycle's telemetry to a
// fabric.Arbiter and runs opportunistic compute on the partitions the
// arbiter leases out whenever the interconnect goes idle. Compute holds a
// lease for a number of simulated cycles taken from core.SchedulerParams,
// and the real engine computes each answer on the run's goroutine, so a
// Result is a function of its Options alone. The same run with Fabric nil
// produces the network-only baseline, so latency comparisons see identical
// packet-generation RNG draws.
package fabricrun

import (
	"fmt"
	"math/rand"

	"flumen"
	"flumen/internal/core"
	"flumen/internal/fabric"
	"flumen/internal/noc"
)

// jobItems is the block items of one compute MatMul: its operands are
// 4·Block square, so (4·Block / Block)² = 16.
const jobItems = 16

// Options parameterizes one mixed-workload run.
type Options struct {
	// Ports and Block set the accelerator geometry (Ports/Block compute
	// partitions). Nodes is the NoP endpoint count; partitions map
	// one-to-one onto the first NumPartitions endpoint ports, which are
	// withdrawn from the communication pool while under compute lease. The
	// MZIM's width and setup cycles are core.DefaultNetworkParams()'s.
	Ports int
	Block int
	Nodes int

	// Rate is the offered load in packets/node/cycle; Pattern the traffic
	// pattern (uniform by default).
	Rate    float64
	Pattern *noc.Pattern

	// Warmup/Measure/Drain are the simulation windows in cycles.
	Warmup  int64
	Measure int64
	Drain   int64
	Seed    int64

	// Fabric, when non-nil, attaches an arbiter with this configuration
	// (Partitions and Nodes are filled in from the geometry) and runs
	// opportunistic compute under its leases: repeated MatMuls of two
	// 4·Block-square matrices. Nil runs the network-only baseline.
	Fabric *fabric.Config

	// StepAt, when positive, holds the offered load at zero until this
	// cycle and then steps it to Rate — the idle→busy transition that
	// exercises reclamation. It must not lie past Warmup+Measure. Compute
	// re-takes a lease in the cycle its predecessor finishes, so the step
	// always lands on held leases.
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

	// ComputeOps counts the MatMuls compute completed; Fabric is the
	// arbiter's final snapshot (nil for baseline runs). LeakedLeases is the
	// number of leases still outstanding after the run released those it
	// held — always zero for a correct arbiter. SteadyState reports that
	// every measured packet was delivered.
	ComputeOps   int64
	Fabric       *fabric.Stats
	LeakedLeases int
	SteadyState  bool
}

// Run executes one mixed-workload simulation: noc.RunSynthetic generates,
// injects and steps the traffic, and after every network step Run ticks
// the arbiter with the cycle's telemetry and settles compute.
func Run(o Options) (*Result, error) {
	o = o.withDefaults()
	if o.StepAt > o.Warmup+o.Measure {
		return nil, fmt.Errorf("fabricrun: StepAt %d lies past the generation window (%d cycles)",
			o.StepAt, o.Warmup+o.Measure)
	}
	pat := noc.Uniform(o.Nodes)
	if o.Pattern != nil {
		pat = *o.Pattern
	}
	np := core.DefaultNetworkParams()
	net := noc.NewMZIM(o.Nodes, np.MZIMWidthBits, np.MZIMSetupCycles)

	cfg := noc.DefaultRunConfig()
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = o.Warmup, o.Measure, o.Drain
	cfg.Seed = o.Seed
	cfg.StepAt = o.StepAt

	var cmp *compute
	var settleErr error
	if o.Fabric != nil {
		var err error
		if cmp, err = newCompute(net, o); err != nil {
			return nil, err
		}
		cfg.OnCycle = func(now int64, _ noc.Network) {
			inj, occ := net.CycleTelemetry()
			cmp.arb.Tick(now, inj, occ)
			if settleErr == nil {
				settleErr = cmp.settle(now)
			}
		}
	}

	rr := noc.RunSynthetic(net, pat, o.Rate, cfg)
	if settleErr != nil {
		return nil, settleErr
	}
	res := &Result{
		AvgLatency:    rr.AvgLatency,
		P50Latency:    rr.P50Latency,
		P99Latency:    rr.P99Latency,
		MaxLatency:    rr.MaxLatency,
		Delivered:     rr.MeasuredDelivered,
		Saturated:     rr.Saturated,
		ElapsedCycles: rr.ElapsedCycles,
		SteadyState:   rr.Undelivered == 0,
	}
	if cmp != nil {
		// Release what compute still holds before the final snapshot, so
		// LeakedLeases counts genuinely stuck leases, not in-flight ones.
		for _, j := range cmp.running {
			cmp.release(j)
		}
		res.ComputeOps = cmp.ops
		st := cmp.arb.Stats()
		res.Fabric = &st
		res.LeakedLeases = st.ActiveLeases
	}
	return res, nil
}

// costs are the chip model's compute-path timing constants; compute holds
// its leases for the cycles they give.
var costs = core.DefaultSchedulerParams()

// compute runs opportunistic MatMuls on leased partitions in simulated
// time. Every MatMul of the fixed operand pair is a job of block items. A
// grant pays ComputeProgramCycles once; item k of the job it runs then
// completes at grant + program + OccupancyCycles(k) and, after the last
// item, the result return adds its port-width transfers. A job finishes —
// the engine computes the answer, the lease goes back — when its result
// return completes. A preempted job stops at its next item boundary and
// waits, with its remaining items, for the next grant.
type compute struct {
	arb   *fabric.Arbiter
	net   *noc.MZIMNet
	accel *flumen.Accelerator
	m, x  [][]float64 // dim×dim operands
	dim   int

	running []*job
	queue   []int // remaining items of preempted jobs; the last is the head
	ops     int64
}

// job is a lease running items block items of one MatMul from cycle start.
type job struct {
	lease *fabric.Lease
	start int64
	items int
	done  int
	// preempted is set at the end of the cycle whose tick preempted the
	// lease, so the job stops at the first item boundary after it.
	preempted bool
}

// newCompute builds the accelerator and the arbiter over its partitions,
// which map one-to-one onto the first NoP ports.
func newCompute(net *noc.MZIMNet, o Options) (*compute, error) {
	accel, err := flumen.NewAccelerator(o.Ports, o.Block)
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
	arb, err := fabric.New(fcfg)
	if err != nil {
		return nil, err
	}
	// One worker: the harness holds the leases and the engine runs on the
	// run's goroutine from its own partition pool. Results do not depend on
	// which partition computes them, so the lease the harness holds and
	// the partition the engine uses are interchangeable.
	accel.SetWorkers(1)
	dim := 4 * o.Block
	m, x := pumpMatrices(dim, o.Seed)
	return &compute{arb: arb, net: net, accel: accel, m: m, x: x, dim: dim}, nil
}

// settle advances compute to cycle now, after the arbiter's tick: jobs
// complete the items due, stop or finish, and hand their leases back;
// jobs that keep theirs note a preemption this tick raised; then every
// lease the arbiter will grant is taken and started.
func (c *compute) settle(now int64) error {
	kept := c.running[:0]
	for _, j := range c.running {
		held, err := c.advance(j, now)
		if err != nil {
			return err
		}
		if !held {
			continue
		}
		j.preempted = j.lease.Preempted()
		kept = append(kept, j)
	}
	c.running = kept
	for {
		l, ok := c.arb.TryAcquire()
		if !ok {
			return nil
		}
		items := jobItems
		if n := len(c.queue); n > 0 {
			items = c.queue[n-1]
			c.queue = c.queue[:n-1]
		}
		c.net.SetPortAvailable(l.Partition(), false)
		c.running = append(c.running, &job{lease: l, start: now, items: items})
	}
}

// advance completes j's items due by cycle now and reports whether j
// still holds its lease. A preemption stops the job at the next item
// boundary, unless that item was its last: a started result return
// finishes. Every item streams the dim columns of x; the result return
// carries the product's 8-bit outputs.
func (c *compute) advance(j *job, now int64) (bool, error) {
	program := costs.ComputeProgramCycles
	for j.done < j.items {
		if j.start+program+costs.OccupancyCycles(j.done+1, c.dim, 0, true) > now {
			return true, nil
		}
		j.done++
		if j.preempted && j.done < j.items {
			left := j.items - j.done
			c.arb.NotePreemptedItems(left)
			c.queue = append(c.queue, left)
			c.release(j)
			return false, nil
		}
	}
	if j.start+program+costs.OccupancyCycles(j.items, c.dim, c.dim*c.dim*8, true) > now {
		return true, nil
	}
	if _, err := c.accel.MatMul(c.m, c.x); err != nil {
		return false, err
	}
	c.ops++
	c.release(j)
	return false, nil
}

// release restores the job's port to the communication pool and returns
// its lease.
func (c *compute) release(j *job) {
	c.net.SetPortAvailable(j.lease.Partition(), true)
	j.lease.Release()
}

// pumpMatrices builds the deterministic dim×dim operand pair compute
// multiplies. The weight matrix is fixed across calls so repeated MatMuls
// hit the accelerator's weight-program cache, the same way a serving
// workload reuses its model weights.
func pumpMatrices(dim int, seed int64) (m, x [][]float64) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	m = make([][]float64, dim)
	x = make([][]float64, dim)
	for i := 0; i < dim; i++ {
		m[i] = make([]float64, dim)
		x[i] = make([]float64, dim)
		for j := 0; j < dim; j++ {
			m[i][j] = rng.Float64()*2 - 1
			x[i][j] = rng.Float64()*2 - 1
		}
	}
	return m, x
}

// Command flumen-fabric exercises the dynamic fabric arbiter (Sec 3.2,
// 3.4): the MZIM fabric carries NoP traffic when loaded and is leased out
// as SVD compute sub-meshes when idle. It sweeps offered load, running the
// network-only baseline and the mixed workload (traffic + opportunistic
// compute under lease) side by side, and runs an idle→busy step scenario
// that measures how many cycles reclamation takes against the configured
// cycle-budget SLO.
//
// Usage:
//
//	flumen-fabric [-pattern name] [-rates list] [-budget n] [-smoke]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"flumen/internal/core"
	"flumen/internal/fabric"
	"flumen/internal/fabricrun"
	"flumen/internal/noc"
)

func main() {
	patFlag := flag.String("pattern", "uniform", "traffic pattern (uniform | bitrev | shuffle | bitcomp | transpose | tornado | neighbor)")
	ratesFlag := flag.String("rates", "0.005,0.01,0.02,0.04,0.08,0.12,0.20", "comma-separated offered loads (packets/node/cycle)")
	ports := flag.Int("ports", 64, "fabric port count")
	block := flag.Int("block", 8, "compute partition size")
	budget := flag.Int("budget", 5000, "reclaim cycle-budget SLO")
	stepRate := flag.Float64("step-rate", 0.4, "offered load for the idle→busy step scenario")
	smoke := flag.Bool("smoke", false, "short CI smoke run: assert steady state, zero leaked leases, reclaim within budget")
	flag.Parse()

	np := core.DefaultNetworkParams()
	nodes := np.Nodes

	if *smoke {
		os.Exit(runSmoke(nodes, np))
	}

	pat, ok := findPattern(*patFlag, nodes)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown pattern %q\n", *patFlag)
		os.Exit(1)
	}
	rates, err := parseRates(*ratesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	base := fabricrun.Options{
		Ports: *ports, Block: *block, Nodes: nodes,
		WidthBits: np.MZIMWidthBits, SetupCycles: np.MZIMSetupCycles,
		Pattern: &pat,
	}
	fcfg := &fabric.Config{ReclaimBudget: *budget}

	fmt.Printf("=== Dynamic fabric: latency vs load, network-only vs mixed (pattern %s, %d nodes, %d partitions) ===\n",
		pat.Name, nodes, *ports / *block)
	fmt.Printf("%-8s %10s %10s %12s %12s %8s %10s %9s\n",
		"rate", "base p50", "mixed p50", "base p99", "mixed p99", "Δavg%", "computeOps", "reclaims")
	for _, rate := range rates {
		bo := base
		bo.Rate = rate
		baseline, err := fabricrun.Run(bo)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		mo := bo
		mo.Fabric = fcfg
		mixed, err := fabricrun.Run(mo)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		delta := 0.0
		if baseline.AvgLatency > 0 {
			delta = 100 * (mixed.AvgLatency - baseline.AvgLatency) / baseline.AvgLatency
		}
		sat := ""
		if baseline.Saturated || mixed.Saturated {
			sat = " (saturated)"
		}
		fmt.Printf("%-8.3f %10d %10d %12d %12d %+7.1f%% %10d %9d%s\n",
			rate, baseline.P50Latency, mixed.P50Latency, baseline.P99Latency, mixed.P99Latency,
			delta, mixed.ComputeOps, mixed.Fabric.LeasesReclaimed, sat)
	}

	fmt.Printf("\n=== Step scenario: idle → %.2f packets/node/cycle ===\n", *stepRate)
	so := base
	so.Rate = *stepRate
	so.Fabric = fcfg
	so.StepAt = 1000
	so.Warmup = 4000
	step, err := fabricrun.Run(so)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fs := step.Fabric
	fmt.Printf("leases granted %d, preempted %d, reclaimed %d; preempted items %d\n",
		fs.LeasesGranted, fs.LeasesPreempted, fs.LeasesReclaimed, fs.PreemptedItems)
	fmt.Printf("reclaim latency: last %d cycles, max %d cycles (budget %d, violations %d)\n",
		fs.LastReclaimCycles, fs.MaxReclaimCycles, *budget, fs.ReclaimSLOViolations)
	fmt.Printf("compute ops during idle windows: %d; compute-cycles stolen by traffic: %d\n",
		step.ComputeOps, fs.ComputeCyclesStolen)
}

// runSmoke is the CI job: a short mixed sweep plus a step scenario, exiting
// non-zero unless the system reaches steady state with zero leaked leases
// and reclaims in a nonzero number of cycles within budget.
func runSmoke(nodes int, np core.NetworkParams) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "SMOKE FAIL: "+format+"\n", args...)
		return 1
	}
	fcfg := &fabric.Config{ReclaimBudget: 5000}
	o := fabricrun.Options{
		Ports: 32, Block: 8, Nodes: nodes,
		WidthBits: np.MZIMWidthBits, SetupCycles: np.MZIMSetupCycles,
		Rate:   0.05,
		Warmup: 1000, Measure: 3000, Drain: 15000,
		Fabric: fcfg,
	}
	mixed, err := fabricrun.Run(o)
	if err != nil {
		return fail("mixed run: %v", err)
	}
	if !mixed.SteadyState {
		return fail("mixed run did not reach steady state: %+v", mixed)
	}
	if mixed.LeakedLeases != 0 {
		return fail("%d leases leaked", mixed.LeakedLeases)
	}
	if mixed.Fabric.LeasesGranted == 0 {
		return fail("no compute leases granted at low load")
	}

	so := o
	so.Rate = 0.4
	so.StepAt = 500
	so.Warmup = 2000
	step, err := fabricrun.Run(so)
	if err != nil {
		return fail("step run: %v", err)
	}
	fs := step.Fabric
	if step.LeakedLeases != 0 {
		return fail("step leaked %d leases", step.LeakedLeases)
	}
	if fs.LeasesPreempted == 0 || fs.LeasesReclaimed == 0 {
		return fail("step forced no reclamation: %+v", fs)
	}
	// A preempted lease stops at the first item boundary after the
	// preempting tick, so a reclaim with no cycles in it means simulated
	// time stopped while leases were held.
	if fs.MaxReclaimCycles == 0 || fs.MaxReclaimCycles > int64(fcfg.ReclaimBudget) || fs.ReclaimSLOViolations != 0 {
		return fail("reclaim outside 0 < cycles ≤ budget: max %d cycles, budget %d, violations %d",
			fs.MaxReclaimCycles, fcfg.ReclaimBudget, fs.ReclaimSLOViolations)
	}
	if step.ComputeOps == 0 {
		return fail("no opportunistic compute completed")
	}
	fmt.Printf("SMOKE OK: %d grants, %d reclaims (max %d cycles ≤ budget %d), %d compute ops, 0 leaked leases\n",
		fs.LeasesGranted, fs.LeasesReclaimed, fs.MaxReclaimCycles, fcfg.ReclaimBudget, step.ComputeOps)
	return 0
}

func findPattern(name string, nodes int) (noc.Pattern, bool) {
	for _, p := range noc.AllPatterns(nodes) {
		if p.Name == name {
			return p, true
		}
	}
	return noc.Pattern{}, false
}

func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, f := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || r <= 0 || math.IsNaN(r) {
			return nil, fmt.Errorf("bad rate %q", f)
		}
		rates = append(rates, r)
	}
	return rates, nil
}

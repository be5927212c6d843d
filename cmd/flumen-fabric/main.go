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
//	flumen-fabric [-pattern name] [-rates list] [-ports n] [-block n] [-budget n] [-step-rate r] [-smoke]
//
// Every flag is checked before any output; a bad one exits with status 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"flumen"
	"flumen/internal/core"
	"flumen/internal/fabric"
	"flumen/internal/fabricrun"
	"flumen/internal/noc"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses and checks every flag before any output,
// writes the report to stdout and returns the exit status (2 for a bad
// flag, 1 for a failed run or smoke check).
func run(args []string, stdout, stderr io.Writer) int {
	nodes := core.DefaultNetworkParams().Nodes
	patterns := noc.AllPatterns(nodes)
	var names []string
	for _, p := range patterns {
		names = append(names, p.Name)
	}

	fs := flag.NewFlagSet("flumen-fabric", flag.ContinueOnError)
	fs.SetOutput(stderr)
	patFlag := fs.String("pattern", "uniform", "traffic pattern ("+strings.Join(names, " | ")+")")
	ratesFlag := fs.String("rates", "0.005,0.01,0.02,0.04,0.08,0.12,0.20", "comma-separated offered loads (packets/node/cycle)")
	ports := fs.Int("ports", 64, "fabric port count")
	block := fs.Int("block", 8, "compute partition size")
	budget := fs.Int("budget", 5000, "reclaim cycle-budget SLO")
	stepRate := fs.Float64("step-rate", 0.4, "offered load for the idle→busy step scenario")
	smoke := fs.Bool("smoke", false, "short smoke run: assert steady state, zero leaked leases, reclaim within budget")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	bad := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "flumen-fabric: "+format+"\n", a...)
		return 2
	}
	var pat *noc.Pattern
	for i := range patterns {
		if patterns[i].Name == *patFlag {
			pat = &patterns[i]
			break
		}
	}
	if pat == nil {
		return bad("unknown -pattern %q; valid: %s", *patFlag, strings.Join(names, ", "))
	}
	rates, err := parseRates(*ratesFlag)
	if err != nil {
		return bad("%v", err)
	}
	if !validRate(*stepRate) {
		return bad("-step-rate %v outside (0, 1]", *stepRate)
	}
	if *budget <= 0 {
		return bad("-budget %d must be positive", *budget)
	}
	if *block <= 0 {
		return bad("-block %d must be positive", *block)
	}
	if *ports / *block > nodes {
		return bad("-ports %d / -block %d is %d partitions, more than the %d NoP nodes",
			*ports, *block, *ports / *block, nodes)
	}
	if _, err := flumen.NewAccelerator(*ports, *block); err != nil {
		return bad("-ports %d -block %d: %v", *ports, *block, err)
	}

	if *smoke {
		return runSmoke(stdout, stderr, nodes)
	}

	base := fabricrun.Options{Ports: *ports, Block: *block, Nodes: nodes, Pattern: pat}
	fcfg := &fabric.Config{ReclaimBudget: *budget}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	fmt.Fprintf(stdout, "=== Dynamic fabric: latency vs load, network-only vs mixed (pattern %s, %d nodes, %d partitions) ===\n",
		pat.Name, nodes, *ports / *block)
	fmt.Fprintf(stdout, "%-8s %10s %10s %12s %12s %8s %10s %9s\n",
		"rate", "base p50", "mixed p50", "base p99", "mixed p99", "Δavg%", "computeOps", "reclaims")
	for _, rate := range rates {
		bo := base
		bo.Rate = rate
		baseline, err := fabricrun.Run(bo)
		if err != nil {
			return fail(err)
		}
		mo := bo
		mo.Fabric = fcfg
		mixed, err := fabricrun.Run(mo)
		if err != nil {
			return fail(err)
		}
		delta := 0.0
		if baseline.AvgLatency > 0 {
			delta = 100 * (mixed.AvgLatency - baseline.AvgLatency) / baseline.AvgLatency
		}
		sat := ""
		if baseline.Saturated || mixed.Saturated {
			sat = " (saturated)"
		}
		fmt.Fprintf(stdout, "%-8.3f %10d %10d %12d %12d %+7.1f%% %10d %9d%s\n",
			rate, baseline.P50Latency, mixed.P50Latency, baseline.P99Latency, mixed.P99Latency,
			delta, mixed.ComputeOps, mixed.Fabric.LeasesReclaimed, sat)
	}

	fmt.Fprintf(stdout, "\n=== Step scenario: idle → %.2f packets/node/cycle ===\n", *stepRate)
	so := base
	so.Rate = *stepRate
	so.Fabric = fcfg
	so.StepAt = 1000
	so.Warmup = 4000
	step, err := fabricrun.Run(so)
	if err != nil {
		return fail(err)
	}
	st := step.Fabric
	fmt.Fprintf(stdout, "leases granted %d, preempted %d, reclaimed %d; preempted items %d\n",
		st.LeasesGranted, st.LeasesPreempted, st.LeasesReclaimed, st.PreemptedItems)
	fmt.Fprintf(stdout, "reclaim latency: last %d cycles, max %d cycles (budget %d, violations %d)\n",
		st.LastReclaimCycles, st.MaxReclaimCycles, *budget, st.ReclaimSLOViolations)
	fmt.Fprintf(stdout, "compute ops during idle windows: %d; compute-cycles stolen by traffic: %d\n",
		step.ComputeOps, st.ComputeCyclesStolen)
	return 0
}

// runSmoke is the -smoke check: a short mixed run plus a step scenario, exiting
// non-zero unless the system reaches steady state with zero leaked leases
// and reclaims in a nonzero number of cycles within budget.
func runSmoke(stdout, stderr io.Writer, nodes int) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "SMOKE FAIL: "+format+"\n", args...)
		return 1
	}
	fcfg := &fabric.Config{ReclaimBudget: 5000}
	o := fabricrun.Options{
		Ports: 32, Block: 8, Nodes: nodes,
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
	fmt.Fprintf(stdout, "SMOKE OK: %d grants, %d reclaims (max %d cycles ≤ budget %d), %d compute ops, 0 leaked leases\n",
		fs.LeasesGranted, fs.LeasesReclaimed, fs.MaxReclaimCycles, fcfg.ReclaimBudget, step.ComputeOps)
	return 0
}

func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, f := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || !validRate(r) {
			return nil, fmt.Errorf("bad -rates entry %q: want a load in (0, 1]", f)
		}
		rates = append(rates, r)
	}
	return rates, nil
}

// validRate reports whether r is an offered load in (0, 1] packets/node/cycle.
func validRate(r float64) bool { return r > 0 && r <= 1 }

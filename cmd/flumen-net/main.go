// Command flumen-net regenerates the synthetic-traffic evaluation of
// Fig. 11 — average packet latency versus offered load for every synthetic
// pattern (uniform random, bit reversal, shuffle and the rest of
// noc.AllPatterns) on the electrical ring, electrical mesh, optical bus,
// and Flumen MZIM topologies — and the Sec 5.2 network energy comparison.
//
// Usage:
//
//	flumen-net [-pattern name] [-topology name] [-energy] [-measure n]
//
// An unknown pattern or topology name exits with status 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"flumen/internal/core"
	"flumen/internal/energy"
	"flumen/internal/noc"
)

// rates are the offered loads of every sweep, in packets per node per cycle.
var rates = []float64{0.002, 0.005, 0.01, 0.02, 0.04, 0.06, 0.09, 0.12, 0.16, 0.20, 0.25, 0.30, 0.40, 0.50}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, writes the report to stdout and
// returns the exit status (2 for a bad flag or name).
func run(args []string, stdout, stderr io.Writer) int {
	np := core.DefaultNetworkParams()
	nodes := np.Nodes
	mk := map[string]func() noc.Network{
		"Ring":   func() noc.Network { return noc.NewRing(nodes, np.RingWidthBits, np.BufPackets) },
		"Mesh":   func() noc.Network { return noc.NewMesh(4, 4, np.MeshWidthBits, np.BufPackets) },
		"OptBus": func() noc.Network { return noc.NewOptBus(nodes, np.BusChannels, np.BusWidthBits) },
		"Flumen": func() noc.Network { return noc.NewMZIM(nodes, np.MZIMWidthBits, np.MZIMSetupCycles) },
	}
	order := []string{"Ring", "Mesh", "OptBus", "Flumen"}
	patterns := map[string]noc.Pattern{}
	var patOrder []string
	for _, p := range noc.AllPatterns(nodes) {
		patterns[p.Name] = p
		patOrder = append(patOrder, p.Name)
	}

	fs := flag.NewFlagSet("flumen-net", flag.ContinueOnError)
	fs.SetOutput(stderr)
	patFlag := fs.String("pattern", "", strings.Join(patOrder, " | ")+" (default: all)")
	topoFlag := fs.String("topology", "", strings.Join(order, " | ")+" (default: all)")
	energyFlag := fs.Bool("energy", false, "print the Sec 5.2 network energy comparison")
	measure := fs.Int64("measure", 10000, "measurement window in cycles")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	for _, c := range []struct {
		flag, val string
		valid     []string
	}{{"pattern", *patFlag, patOrder}, {"topology", *topoFlag, order}} {
		if c.val != "" && !slices.Contains(c.valid, c.val) {
			fmt.Fprintf(stderr, "flumen-net: unknown -%s %q; valid: %s\n", c.flag, c.val, strings.Join(c.valid, ", "))
			return 2
		}
	}

	cfg := noc.DefaultRunConfig()
	cfg.MeasureCycles = *measure

	if *energyFlag {
		printEnergy(stdout, mk, order, patterns["uniform"], cfg)
		return 0
	}

	fmt.Fprintln(stdout, "=== Fig. 11: average latency vs offered load (16 nodes, matched bisection BW) ===")
	for _, pname := range patOrder {
		if *patFlag != "" && *patFlag != pname {
			continue
		}
		fmt.Fprintf(stdout, "\n--- pattern: %s ---\n", pname)
		for _, tname := range order {
			if *topoFlag != "" && *topoFlag != tname {
				continue
			}
			fmt.Fprintf(stdout, "%s:\n", tname)
			for _, r := range noc.LoadSweep(mk[tname], patterns[pname], rates, cfg) {
				fmt.Fprintf(stdout, "  %s\n", r)
			}
		}
	}
	return 0
}

// printEnergy reproduces the Sec 5.2 comparison: network energy across the
// synthetic benchmarks relative to the Ring, at a fixed moderate load.
func printEnergy(w io.Writer, mk map[string]func() noc.Network, order []string, pat noc.Pattern, cfg noc.RunConfig) {
	fmt.Fprintln(w, "=== Sec 5.2: network energy on synthetic traffic (relative to Ring) ===")
	p := energy.Default()
	const rate = 0.02
	kindOf := map[string]core.TopologyKind{
		"Ring": core.TopoRing, "Mesh": core.TopoMesh,
		"OptBus": core.TopoOptBus, "Flumen": core.TopoFlumenI,
	}
	energies := map[string]float64{}
	for _, tname := range order {
		res := noc.RunSynthetic(mk[tname](), pat, rate, cfg)
		seconds := float64(res.ElapsedCycles) / (p.CoreClockGHz * 1e9)
		energies[tname] = core.NoPEnergyPJ(kindOf[tname], res.Counters, seconds, 16, p, 0)
	}
	ring := energies["Ring"]
	fmt.Fprintf(w, "%-8s %14s %12s\n", "topology", "energy (µJ)", "vs Ring")
	for _, tname := range order {
		red := 100 * (1 - energies[tname]/ring)
		fmt.Fprintf(w, "%-8s %14.3f %10.1f%% reduction\n", tname, energies[tname]/1e6, red)
	}
	fmt.Fprintln(w, "paper: Mesh 77%, OptBus 35%, Flumen 39% reduction vs Ring")
}

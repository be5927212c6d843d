// Command flumen-repro regenerates the paper's entire evaluation in one
// run and writes a markdown report: Fig. 1 utilization, Fig. 11 saturation
// summary, Figs. 12a/b/c scaling, Figs. 13/14/15 full-system results with
// geometric means, Sec 5.1 area, and the Sec 3.4 scheduler sensitivity —
// the measured side of EXPERIMENTS.md.
//
// Usage:
//
//	flumen-repro [-o report.md] [-scale n]
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"flumen"
	"flumen/internal/core"
	"flumen/internal/energy"
	"flumen/internal/noc"
	"flumen/internal/optics"
	"flumen/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, writes the report and returns the
// exit status (2 for a bad flag, before any output).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flumen-repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "write the report to this file (default stdout)")
	scale := fs.Int("scale", 1, "linear workload shrink factor (1 = paper scale)")
	csvPath := fs.String("csv", "", "also write the full benchmark×topology grid as CSV")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *scale < 1 {
		fmt.Fprintf(stderr, "flumen-repro: -scale must be at least 1 (1 = paper scale), got %d\n", *scale)
		return 2
	}

	var w io.Writer = stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		w = f
	}
	report(w, *scale)
	if *csvPath != "" {
		if err := writeCSV(*csvPath, *scale); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}

// writeCSV dumps the full suite grid with one row per (benchmark,
// topology) pair for downstream plotting.
func writeCSV(path string, scale int) error {
	s, err := flumen.RunSuite(flumen.DefaultConfig(), scale)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cw := csv.NewWriter(f)
	defer cw.Flush()
	header := []string{"benchmark", "topology", "cycles", "seconds",
		"core_pj", "l1i_pj", "l1d_pj", "l2_pj", "l3_pj", "dram_pj", "nop_pj",
		"total_pj", "edp_js", "link_util", "offloads_granted", "reprograms", "tag_reuses"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, b := range s.Benchmarks {
		for _, topo := range flumen.Topologies() {
			r := s.Results[b][topo]
			e := r.Energy
			row := []string{
				b, topo,
				fmt.Sprint(r.Cycles), fmt.Sprintf("%.9g", r.Seconds),
				fmt.Sprintf("%.0f", e.CorePJ), fmt.Sprintf("%.0f", e.L1iPJ),
				fmt.Sprintf("%.0f", e.L1dPJ), fmt.Sprintf("%.0f", e.L2PJ),
				fmt.Sprintf("%.0f", e.L3PJ), fmt.Sprintf("%.0f", e.DRAMPJ),
				fmt.Sprintf("%.0f", e.NoPPJ), fmt.Sprintf("%.0f", e.TotalPJ()),
				fmt.Sprintf("%.6g", r.EDPJouleSeconds),
				fmt.Sprintf("%.5f", r.AvgLinkUtilization),
				fmt.Sprint(r.OffloadsGranted), fmt.Sprint(r.Reprograms), fmt.Sprint(r.TagReuses),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	return nil
}

func report(w io.Writer, scale int) {
	fmt.Fprintln(w, "# Flumen reproduction report")
	fmt.Fprintf(w, "\nWorkload scale: 1/%d of paper scale.\n", scale)

	fig1(w, scale)
	fig11(w)
	fig12(w)
	figs131415(w, scale)
	sec51(w)
	sec34(w, scale)
}

func fig1(w io.Writer, scale int) {
	fmt.Fprintln(w, "\n## Fig. 1 — link utilization vs WDM provisioning")
	fmt.Fprintln(w, "\n| benchmark | λs | avg link util |")
	fmt.Fprintln(w, "|---|---|---|")
	for _, name := range []string{"ImageBlur", "VGG16FC"} {
		for _, lambdas := range []int{16, 32, 64} {
			var wl workload.Workload
			for _, cand := range workload.ScaledAll(scale) {
				if cand.Name() == name {
					wl = cand
				}
			}
			cfg := flumen.DefaultConfig()
			cfg.Wavelengths = lambdas
			res, err := flumen.RunWorkload(wl, "Flumen-I", cfg)
			if err != nil {
				fmt.Fprintf(w, "| %s | %d | error: %v |\n", name, lambdas, err)
				continue
			}
			fmt.Fprintf(w, "| %s | %d | %.2f%% |\n", name, lambdas, 100*res.AvgLinkUtilization)
		}
	}
}

func fig11(w io.Writer) {
	fmt.Fprintln(w, "\n## Fig. 11 — synthetic traffic (uniform): zero-load latency and saturation")
	np := core.DefaultNetworkParams()
	mk := map[string]func() noc.Network{
		"Ring":   func() noc.Network { return noc.NewRing(np.Nodes, np.RingWidthBits, np.BufPackets) },
		"Mesh":   func() noc.Network { return noc.NewMesh(4, 4, np.MeshWidthBits, np.BufPackets) },
		"OptBus": func() noc.Network { return noc.NewOptBus(np.Nodes, np.BusChannels, np.BusWidthBits) },
		"Flumen": func() noc.Network { return noc.NewMZIM(np.Nodes, np.MZIMWidthBits, np.MZIMSetupCycles) },
	}
	cfg := noc.DefaultRunConfig()
	cfg.MeasureCycles = 6000
	rates := []float64{0.002, 0.01, 0.04, 0.08, 0.12, 0.16, 0.2, 0.25, 0.32, 0.4, 0.5}
	fmt.Fprintln(w, "\n| topology | zero-load latency | saturation (Gbps/node) |")
	fmt.Fprintln(w, "|---|---|---|")
	for _, name := range []string{"Ring", "Mesh", "OptBus", "Flumen"} {
		sweep := noc.LoadSweep(mk[name], noc.Uniform(np.Nodes), rates, cfg)
		zero := sweep[0].AvgLatency
		sat := "not reached"
		for _, r := range sweep {
			if r.Saturated {
				sat = fmt.Sprintf("%.0f", r.OfferedGbps)
				break
			}
		}
		fmt.Fprintf(w, "| %s | %.1f cyc | %s |\n", name, zero, sat)
	}
}

func fig12(w io.Writer) {
	d := optics.DefaultDevices()
	p := energy.Default()
	fmt.Fprintln(w, "\n## Fig. 12a — laser power at 32 λ, 0.1 dB MRR thru loss")
	ob := optics.OptBusLaserPowerMW(d, 16, 32, 1)
	fl := optics.FlumenLaserPowerMW(d, 16, 32, 1)
	fmt.Fprintf(w, "\nOptBus %.3g mW vs Flumen %.3g mW → %.0f× (paper: 32.3 mW vs 0.43 mW = 75×; see EXPERIMENTS.md D4)\n", ob, fl, ob/fl)

	fmt.Fprintln(w, "\n## Fig. 12b — compute energy anchors")
	fmt.Fprintln(w, "\n| point | elec (pJ) | Flumen (pJ) | gain |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, tc := range []struct{ n, v int }{{8, 4}, {16, 8}, {64, 1}, {64, 4}, {64, 8}} {
		e := p.ElecMatMulPJ(tc.n, tc.v)
		f := p.FlumenComputePJ(tc.n, tc.v)
		fmt.Fprintf(w, "| %d×%d, %d vec | %.1f | %.1f | %.2f× |\n", tc.n, tc.n, tc.v, e, f, e/f)
	}

	fmt.Fprintln(w, "\n## Fig. 12c — pJ/MAC by mesh size and λ")
	fmt.Fprintln(w, "\n| dim | 1 λ | 8 λ |")
	fmt.Fprintln(w, "|---|---|---|")
	for _, n := range []int{8, 16, 32, 64} {
		fmt.Fprintf(w, "| %d | %.4f | %.4f |\n", n, p.FlumenMACEnergyPJ(n, 1), p.FlumenMACEnergyPJ(n, 8))
	}
}

// figs131415 prints the full-system grid: Fig. 13's energy by component for
// every benchmark × topology, Fig. 14's speedup of Flumen-A over each other
// topology, Fig. 15's energy-delay products, each closed by its geomean.
func figs131415(w io.Writer, scale int) {
	s, err := flumen.RunSuite(flumen.DefaultConfig(), scale)
	if err != nil {
		fmt.Fprintf(w, "\nsuite error: %v\n", err)
		return
	}
	topos := flumen.Topologies()

	fmt.Fprintln(w, "\n## Fig. 13 — energy by component (µJ)")
	fmt.Fprintln(w, "\n| benchmark | topology | core | L1i | L1d | L2 | L3 | DRAM | NoP | total | gain over Mesh |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|---|")
	for _, b := range s.Benchmarks {
		for _, topo := range topos {
			r := s.Results[b][topo]
			e := r.Energy
			fmt.Fprintf(w, "| %s | %s | %.1f | %.1f | %.1f | %.1f | %.1f | %.1f | %.1f | %.1f | %.2f× |\n",
				b, topo, e.CorePJ/1e6, e.L1iPJ/1e6, e.L1dPJ/1e6, e.L2PJ/1e6, e.L3PJ/1e6,
				e.DRAMPJ/1e6, e.NoPPJ/1e6, e.TotalPJ()/1e6, r.EnergyGainOver(s.Results[b]["Mesh"]))
		}
	}
	fmt.Fprintf(w, "\ngeomean Flumen-A energy gain over Mesh: %.2f× (paper: 2.5×)\n", s.GeomeanEnergyGain("Mesh"))

	fmt.Fprintln(w, "\n## Fig. 14 — speedup of Flumen-A over each topology")
	var others []string
	for _, topo := range topos {
		if topo != "Flumen-A" {
			others = append(others, topo)
		}
	}
	fmt.Fprintf(w, "\n| benchmark | %s |\n|---|%s\n", strings.Join(others, " | "), strings.Repeat("---|", len(others)))
	for _, b := range s.Benchmarks {
		fmt.Fprintf(w, "| %s |", b)
		for _, topo := range others {
			fmt.Fprintf(w, " %.2f× |", s.Results[b]["Flumen-A"].SpeedupOver(s.Results[b][topo]))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\ngeomean Flumen-A speedup over Mesh: %.2f× (paper: 3.6×)\n", s.GeomeanSpeedup("Mesh"))

	fmt.Fprintln(w, "\n## Fig. 15 — energy-delay product (nJ·s)")
	fmt.Fprintf(w, "\n| benchmark | %s | Flumen-A gain over Mesh |\n|---|%s---|\n", strings.Join(topos, " | "), strings.Repeat("---|", len(topos)))
	for _, b := range s.Benchmarks {
		fmt.Fprintf(w, "| %s |", b)
		for _, topo := range topos {
			fmt.Fprintf(w, " %.3f |", s.Results[b][topo].EDPJouleSeconds*1e9)
		}
		fmt.Fprintf(w, " %.1f× |\n", s.Results[b]["Flumen-A"].EDPGainOver(s.Results[b]["Mesh"]))
	}
	fmt.Fprintf(w, "\ngeomean Flumen-A EDP gain over Mesh: %.1f× (paper: 9.3×)\n", s.GeomeanEDPGain("Mesh"))
}

func sec51(w io.Writer) {
	a := energy.DefaultArea()
	fmt.Fprintln(w, "\n## Sec 5.1 — area")
	fmt.Fprintf(w, "\n8×8 MZIM %.2f mm², +controller %.2f mm², Flumen system %.2f mm², 64×64 MZIM %.1f mm²\n",
		a.MZIMAreaMM2(8), a.FlumenInterposerMM2(8), a.FlumenSystemMM2(16, 8), a.MZIMAreaMM2(64))
}

func sec34(w io.Writer, scale int) {
	fmt.Fprintln(w, "\n## Sec 3.4 — scheduler sensitivity (ResNet50 Conv3, Flumen-A)")
	var wl workload.Workload
	for _, cand := range workload.ScaledAll(scale * 2) {
		if cand.Name() == "ResNet50Conv3" {
			wl = cand
		}
	}
	base := flumen.DefaultConfig()
	baseline, err := flumen.RunWorkload(wl, "Flumen-A", base)
	if err != nil {
		fmt.Fprintf(w, "error: %v\n", err)
		return
	}
	fmt.Fprintln(w, "\n| knob | value | runtime vs paper point |")
	fmt.Fprintln(w, "|---|---|---|")
	for _, tau := range []int64{25, 100, 400, 800} {
		cfg := base
		cfg.Tau = tau
		r, err := flumen.RunWorkload(wl, "Flumen-A", cfg)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "| τ | %d | %.2f× |\n", tau, float64(baseline.Cycles)/float64(r.Cycles))
	}
	for _, eta := range []float64{0.05, 0.40, 0.90} {
		cfg := base
		cfg.Eta = eta
		r, err := flumen.RunWorkload(wl, "Flumen-A", cfg)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "| η | %.2f | %.2f× |\n", eta, float64(baseline.Cycles)/float64(r.Cycles))
	}
	for _, zeta := range []float64{0.25, 0.50, 1.0} {
		cfg := base
		cfg.Zeta = zeta
		r, err := flumen.RunWorkload(wl, "Flumen-A", cfg)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "| ζ | %.2f | %.2f× |\n", zeta, float64(baseline.Cycles)/float64(r.Cycles))
	}
}

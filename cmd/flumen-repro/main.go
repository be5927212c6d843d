// Command flumen-repro regenerates the paper's evaluation as one markdown
// report, one section per figure: Fig. 1 link utilization, Fig. 11
// latency against load, the Sec 5.2 network energy, Figs. 12a/b/c device
// scaling, the Sec 6 crosstalk argument, Figs. 13/14/15 full-system
// results with geometric means, the Sec 5.1 area model and the Sec 3.4
// scheduler sensitivity — the measured side of EXPERIMENTS.md.
//
// Usage:
//
//	flumen-repro [-o report.md] [-scale n] [-csv grid.csv] [section ...]
//
// With no section it writes the whole report. Given section names (fig1,
// fig11, sec52, fig12, sec6, figs13-15, sec51, sec34) it writes only those
// sections, each byte for byte as the report prints it. A bad flag, an
// unknown section or a -scale below 1 exits 2 before any output; a section
// that fails, or a report that cannot be written in full, exits 1 with the
// error on stderr.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"flumen"
	"flumen/internal/core"
	"flumen/internal/energy"
	"flumen/internal/layout"
	"flumen/internal/noc"
	"flumen/internal/optics"
	"flumen/internal/workload"
)

// sections is the report, in order; each entry writes one figure at the
// given workload scale.
var sections = []struct {
	name string
	run  func(w io.Writer, scale int) error
}{
	{"fig1", fig1},
	{"fig11", fig11},
	{"sec52", sec52},
	{"fig12", fig12},
	{"sec6", sec6},
	{"figs13-15", figs131415},
	{"sec51", sec51},
	{"sec34", sec34},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, writes the report or the named
// sections and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, s := range sections {
		names = append(names, s.name)
	}
	fs := flag.NewFlagSet("flumen-repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: flumen-repro [-o file] [-scale n] [-csv file] [section ...]\nsections: %s\n", strings.Join(names, ", "))
		fs.PrintDefaults()
	}
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
		fs.Usage()
		return 2
	}
	todo := sections
	if fs.NArg() > 0 {
		todo = nil
		for _, name := range fs.Args() {
			i := slices.Index(names, name)
			if i < 0 {
				fmt.Fprintf(stderr, "flumen-repro: unknown section %q\n", name)
				fs.Usage()
				return 2
			}
			todo = append(todo, sections[i])
		}
	}

	w := &errWriter{w: stdout}
	var file *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close() // when a section fails; the report's Close is checked below
		file, w.w = f, f
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(w, "# Flumen reproduction report")
		fmt.Fprintf(w, "\nWorkload scale: 1/%d of paper scale.\n", *scale)
	}
	for _, s := range todo {
		if err := s.run(w, *scale); err != nil {
			fmt.Fprintf(stderr, "flumen-repro: %s: %v\n", s.name, err)
			return 1
		}
	}
	if w.err != nil {
		fmt.Fprintf(stderr, "flumen-repro: writing the report: %v\n", w.err)
		return 1
	}
	if file != nil {
		if err := file.Close(); err != nil {
			fmt.Fprintf(stderr, "flumen-repro: %v\n", err)
			return 1
		}
	}
	if *csvPath != "" {
		if err := writeCSV(*csvPath, *scale); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}

// errWriter passes writes on to w until one fails, and keeps that first
// error; every later write fails with it. The sections drop the errors of
// their fmt.Fprint* calls, so err is the report's one write check.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
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
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return f.Close()
}

// scaledWorkload returns the named benchmark at 1/scale of paper scale.
func scaledWorkload(name string, scale int) (workload.Workload, error) {
	for _, wl := range workload.ScaledAll(scale) {
		if wl.Name() == name {
			return wl, nil
		}
	}
	return nil, fmt.Errorf("no benchmark %q", name)
}

// fig1 is Fig. 1: Flumen-I link utilization of Image Blur and VGG16 FC as
// the WDM link is under-provisioned (16, 32, 64 λ ⇔ 160, 320, 640 Gbps at
// 10 Gbps modulation), with the utilization over time that the figure
// plots, sampled every 500 cycles.
func fig1(w io.Writer, scale int) error {
	fmt.Fprintln(w, "\n## Fig. 1 — link utilization vs WDM provisioning (Flumen-I, 16 nodes)")
	fmt.Fprintln(w, "\n| benchmark | λs | BW (Gbps) | avg link util | utilization over time |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, name := range []string{"ImageBlur", "VGG16FC"} {
		wl, err := scaledWorkload(name, scale)
		if err != nil {
			return err
		}
		for _, lambdas := range []int{16, 32, 64} {
			cfg := flumen.DefaultConfig()
			cfg.Wavelengths = lambdas
			cfg.UtilWindow = 500
			res, err := flumen.RunWorkload(wl, "Flumen-I", cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "| %s | %d | %d | %.2f%% | `%s` |\n",
				name, lambdas, lambdas*10, 100*res.AvgLinkUtilization, sparkline(res.UtilizationTrace))
		}
	}
	fmt.Fprintln(w, "\npaper: 64 λ → 5.5% (Blur) / 1.9% (VGG FC); 16 λ → 19.7% / 7.5%")
	return nil
}

// sparkline renders a utilization trace as at most 72 bars, each the
// highest sample of its stretch.
func sparkline(trace []float64) string {
	const width = 72
	glyphs := []rune(" ▁▂▃▄▅▆▇█")
	step := (len(trace) + width - 1) / width
	var b strings.Builder
	for i := 0; i < len(trace); i += step {
		m := slices.Max(trace[i:min(i+step, len(trace))])
		b.WriteRune(glyphs[min(int(m*float64(len(glyphs)-1)), len(glyphs)-1)])
	}
	return b.String()
}

// nets are the four networks of Fig. 11 and Sec 5.2, built as the
// full-system model builds them (Flumen-I is the MZIM used for
// communication only).
var nets = []core.TopologyKind{core.TopoRing, core.TopoMesh, core.TopoOptBus, core.TopoFlumenI}

// syntheticConfig is the run of every synthetic-traffic point: 10 000
// measured cycles.
func syntheticConfig() noc.RunConfig {
	cfg := noc.DefaultRunConfig()
	cfg.MeasureCycles = 10000
	return cfg
}

// fig11 is Fig. 11: average packet latency against offered load for the
// three patterns the paper plots, one table per pattern. Zero-load latency
// is each network's lowest-load point, and its saturation point is the
// first load that RunSynthetic reports saturated (the benchmark's
// noc.saturation_rate rule). A sweep stops after its second saturated
// point, so higher loads show "—".
func fig11(w io.Writer, _ int) error {
	rates := []float64{0.002, 0.005, 0.01, 0.02, 0.04, 0.06, 0.09, 0.12, 0.16, 0.20, 0.25, 0.30, 0.40, 0.50}
	np := core.DefaultNetworkParams()
	cfg := syntheticConfig()
	fmt.Fprintln(w, "\n## Fig. 11 — average packet latency (cycles) vs offered load (16 nodes, matched bisection BW)")
	for _, pat := range []noc.Pattern{noc.Uniform(np.Nodes), noc.BitReversal(np.Nodes), noc.Shuffle(np.Nodes)} {
		sweeps := make([][]noc.RunResult, len(nets))
		for i, kind := range nets {
			sweeps[i] = noc.LoadSweep(func() noc.Network { return core.BuildNetwork(kind, np) }, pat, rates, cfg)
		}
		fmt.Fprintf(w, "\n### %s\n\n| load (Gbps/node) |", pat.Name)
		for _, kind := range nets {
			fmt.Fprintf(w, " %s |", kind)
		}
		fmt.Fprintf(w, "\n|---|%s\n", strings.Repeat("---|", len(nets)))
		for j := range rates {
			i := slices.IndexFunc(sweeps, func(s []noc.RunResult) bool { return j < len(s) })
			if i < 0 {
				break
			}
			fmt.Fprintf(w, "| %.1f |", sweeps[i][j].OfferedGbps)
			for _, s := range sweeps {
				switch {
				case j >= len(s):
					fmt.Fprint(w, " — |")
				case s[j].Saturated:
					fmt.Fprintf(w, " %.1f (saturated) |", s[j].AvgLatency)
				default:
					fmt.Fprintf(w, " %.1f |", s[j].AvgLatency)
				}
			}
			fmt.Fprintln(w)
		}
		fmt.Fprint(w, "| zero-load latency |")
		for _, s := range sweeps {
			fmt.Fprintf(w, " %.1f |", s[0].AvgLatency)
		}
		fmt.Fprint(w, "\n| saturation (Gbps/node) |")
		for _, s := range sweeps {
			if i := slices.IndexFunc(s, func(r noc.RunResult) bool { return r.Saturated }); i >= 0 {
				fmt.Fprintf(w, " %.0f |", s[i].OfferedGbps)
			} else {
				fmt.Fprint(w, " not reached |")
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// sec52 is the Sec 5.2 comparison: each network's energy under uniform
// traffic at 0.02 packets/node/cycle, relative to the Ring.
func sec52(w io.Writer, _ int) error {
	const rate = 0.02
	np := core.DefaultNetworkParams()
	p := energy.Default()
	pj := make([]float64, len(nets))
	for i, kind := range nets {
		res := noc.RunSynthetic(core.BuildNetwork(kind, np), noc.Uniform(np.Nodes), rate, syntheticConfig())
		seconds := float64(res.ElapsedCycles) / (p.CoreClockGHz * 1e9)
		pj[i] = core.NoPEnergyPJ(kind, res.Counters, seconds, np.Nodes, p, 0)
	}
	fmt.Fprintln(w, "\n## Sec 5.2 — network energy on synthetic traffic (uniform, 0.02 packets/node/cycle)")
	fmt.Fprintln(w, "\n| topology | energy (µJ) | reduction vs Ring |")
	fmt.Fprintln(w, "|---|---|---|")
	for i, kind := range nets {
		fmt.Fprintf(w, "| %s | %.3f | %.1f%% |\n", kind, pj[i]/1e6, 100*(1-pj[i]/pj[0]))
	}
	fmt.Fprintln(w, "\npaper: Mesh 77%, OptBus 35%, Flumen 39% reduction vs Ring")
	return nil
}

// fig12 is Fig. 12: (a) laser power against MRR thru-port loss and
// wavelength count for the OptBus and Flumen, (b) the compute energy of
// the Flumen MZIM against an approximate 8-bit electrical MAC unit, and
// (c) energy per MAC against MZIM dimension and wavelength count.
func fig12(w io.Writer, _ int) error {
	const waveguideCM = 1.0
	d := optics.DefaultDevices()
	fmt.Fprintln(w, "\n## Fig. 12a — laser power vs MRR thru loss and wavelength count (16 nodes)")
	fmt.Fprintln(w, "\n| thru (dB) | λs | OptBus (mW) | Flumen (mW) | ratio |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, loss := range []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.1} {
		for _, lambdas := range []int{16, 32, 64} {
			d.MRRThruLossDB = loss
			ob := optics.OptBusLaserPowerMW(d, 16, lambdas, waveguideCM)
			fl := optics.FlumenLaserPowerMW(d, 16, lambdas, waveguideCM)
			fmt.Fprintf(w, "| %.2f | %d | %.4f | %.6f | %.0f× |\n", loss, lambdas, ob, fl, ob/fl)
		}
	}
	d.MRRThruLossDB = 0.1
	ob := optics.OptBusLaserPowerMW(d, 16, 32, waveguideCM)
	fl := optics.FlumenLaserPowerMW(d, 16, 32, waveguideCM)
	fmt.Fprintf(w, "\nAt 32 λ and 0.1 dB thru loss: OptBus %.2f mW, Flumen %.4f mW (%.0f×; paper: 32.3 mW vs 429.6 µW = 75×; see EXPERIMENTS.md D4).\n",
		ob, fl, ob/fl)
	fmt.Fprintf(w, "Worst-case loss there: OptBus %.1f dB (∝ k·p), Flumen %.1f dB (∝ k/2 + 2p).\n",
		optics.OptBusWorstCaseLossDB(d, 16, 32, waveguideCM), optics.FlumenWorstCaseLossDB(d, 16, 32, waveguideCM))

	p := energy.Default()
	fmt.Fprintln(w, "\n## Fig. 12b — compute energy, Flumen MZIM vs 8-bit approximate electrical MAC")
	fmt.Fprintln(w, "\n| matrix | vecs | elec (pJ) | Flumen (pJ) | gain |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, n := range []int{4, 8, 16, 64} {
		for _, v := range []int{1, 2, 4, 8} {
			e, f := p.ElecMatMulPJ(n, v), p.FlumenComputePJ(n, v)
			fmt.Fprintf(w, "| %d×%d | %d | %.1f | %.1f | %.2f× |\n", n, n, v, e, f, e/f)
		}
	}
	fmt.Fprintln(w, "\npaper anchors: 8×8/4v: 69.2 vs 33.8 pJ (2×); 16×16/8v: 554 vs 82 pJ (~7×); "+
		"64×64 (beyond the figure's axis) 1/4/8v: Flumen 0.62/1.32/2.24 nJ (1.8/3.4/4.0×)")

	lambdas := []int{1, 2, 4, 8, 16}
	fmt.Fprintln(w, "\n## Fig. 12c — energy per MAC (pJ) vs MZIM dimension and wavelength count")
	fmt.Fprint(w, "\n| dim |")
	for _, v := range lambdas {
		fmt.Fprintf(w, " %d λ |", v)
	}
	fmt.Fprintf(w, "\n|---|%s\n", strings.Repeat("---|", len(lambdas)))
	for _, n := range []int{4, 8, 16, 32, 64} {
		fmt.Fprintf(w, "| %d |", n)
		for _, v := range lambdas {
			fmt.Fprintf(w, " %.4f |", p.FlumenMACEnergyPJ(n, v))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nelectrical baseline: %.2f pJ/MAC (0.75 mW approximate multiplier at 2.5 GHz)\n", p.ElecMACPJ)
	return nil
}

// sec6 is the Sec 6 scalability argument: dense MRR banks accumulate
// aggregate crosstalk that bounds analog precision, while the receiver
// physics of the compute path supports ≈ 8 bits — why Flumen computes with
// MZI modulation and keeps ring counts per endpoint low.
func sec6(w io.Writer, _ int) error {
	d := optics.DefaultDevices()
	l := optics.DefaultLink()
	fmt.Fprintln(w, "\n## Sec 6 — MRR crosstalk and analog precision")
	fmt.Fprintf(w, "\nReceiver-physics precision at the compute point (−4 dBm, %.1f GHz Nyquist): %.1f bits (Table 1: 8).\n",
		l.InputModulationGHz/2, optics.ComputePrecisionBits(d, -4, l))
	fmt.Fprintln(w, "\n| channels | spacing (nm) | worst xtalk (dB) | xtalk-limited bits |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, ch := range []int{16, 32, 64} {
		for _, sp := range []float64{0.4, 0.8, 1.6} {
			x := optics.NewWDMDemux(ch, sp).WorstAggregateCrosstalkDB()
			fmt.Fprintf(w, "| %d | %.1f | %.1f | %.1f |\n", ch, sp, x, optics.CrosstalkLimitedBits(x))
		}
	}
	fmt.Fprintln(w, "\nDense ring banks cannot sustain 8-bit analog signalling; MZI meshes avoid the resonant crosstalk entirely.")
	return nil
}

// figs131415 prints the full-system grid: Fig. 13's energy by component for
// every benchmark × topology, Fig. 14's speedup of Flumen-A over each other
// topology, Fig. 15's energy-delay products, each closed by its geomean.
func figs131415(w io.Writer, scale int) error {
	s, err := flumen.RunSuite(flumen.DefaultConfig(), scale)
	if err != nil {
		return err
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
	return nil
}

// sec51 is the Sec 5.1 area analysis — endpoint, 8×8 MZIM and controller,
// the system against an electrical-mesh one, the 64×64 / 128-chiplet
// projection — with MZIM area by port count and the Fig. 9 interposer
// floorplan's wire and waveguide lengths.
func sec51(w io.Writer, _ int) error {
	a := energy.DefaultArea()
	flumen16, mesh16 := a.FlumenSystemMM2(16, 8), a.MeshSystemMM2(16)
	mzim64 := a.MZIMAreaMM2(64)
	fmt.Fprintln(w, "\n## Sec 5.1 — area")
	fmt.Fprintln(w, "\n| quantity | model | paper |")
	fmt.Fprintln(w, "|---|---|---|")
	for _, r := range [][3]string{
		{"endpoint area", fmt.Sprintf("%.2f mm² (%.1f%% photonic transceiver)", a.EndpointMM2, 100*a.TransceiverFraction), "9.46 mm², 4.2%"},
		{"8×8 Flumen MZIM", fmt.Sprintf("%.2f mm² (%d MZIs)", a.MZIMAreaMM2(8), energy.FlumenMZIMCount(8)), "5.04 mm²"},
		{"8×8 MZIM + controller", fmt.Sprintf("%.2f mm²", a.FlumenInterposerMM2(8)), "11.2 mm²"},
		{"16 chiplets", fmt.Sprintf("%.2f mm²", a.ChipletsAreaMM2(16)), "151.36 mm²"},
		{"64-core Flumen system", fmt.Sprintf("%.2f mm²", flumen16), "162.6 mm²"},
		{"64-core electrical-mesh system", fmt.Sprintf("%.2f mm²", mesh16), "114.9 mm² as printed; 144.9 mm² reconciles its own deltas"},
		{"Flumen overhead", fmt.Sprintf("%.2f mm² (+%.1f%%)", flumen16-mesh16, 100*(flumen16-mesh16)/mesh16), "+17.7 mm², +12.2% relative"},
		{"64×64 Flumen MZIM", fmt.Sprintf("%.1f mm² (≈%.1f chiplets in size)", mzim64, mzim64/a.ChipletMM2), "291.20 mm² ≈ 16 chiplets"},
		{"128 chiplets", fmt.Sprintf("%.1f mm²", a.ChipletsAreaMM2(128)), "1210.88 mm²"},
		{"interconnect fraction at 128 chiplets", fmt.Sprintf("%.1f%% (interposer-confined)", 100*mzim64/(mzim64+a.ChipletsAreaMM2(128))), "—"},
	} {
		fmt.Fprintf(w, "| %s | %s | %s |\n", r[0], r[1], r[2])
	}

	fmt.Fprintln(w, "\n| ports | MZIs | MZIM area (mm²) |")
	fmt.Fprintln(w, "|---|---|---|")
	for _, n := range []int{8, 16, 32, 64} {
		fmt.Fprintf(w, "| %d | %d | %.2f |\n", n, energy.FlumenMZIMCount(n), a.MZIMAreaMM2(n))
	}

	f := layout.DefaultFloorplan()
	d := optics.DefaultDevices()
	fmt.Fprintln(w, "\nInterposer floorplan (Fig. 9): 4×4 chiplets, 3.6 mm pitch.")
	fmt.Fprintln(w, "\n| wire | length |")
	fmt.Fprintln(w, "|---|---|")
	fmt.Fprintf(w, "| mesh link | %.2f mm (nearest neighbour) |\n", f.MeshLinkLengthMM())
	fmt.Fprintf(w, "| ring link (avg) | %.2f mm (index-order embedding, %.2f× mesh) |\n",
		f.AvgRingLinkLengthMM(), f.RingEnergyScaleVsMesh())
	fmt.Fprintf(w, "| worst chiplet→fabric waveguide | %.2f cm (%.2f dB at %.1f dB/cm) |\n",
		f.WorstWaveguideRunCM(), f.WorstWaveguideRunCM()*d.WaveguideStraightLossDBcm, d.WaveguideStraightLossDBcm)
	fmt.Fprintf(w, "| worst round-trip waveguide | %.2f cm (%.2f dB), the loss-budget input |\n",
		f.RoundTripWaveguideCM(), f.RoundTripWaveguideCM()*d.WaveguideStraightLossDBcm)
	return nil
}

// knobs are the Algorithm 1 scheduler parameters Sec 3.4 sweeps, each with
// the values tried and what the paper says of them.
var knobs = []struct {
	name, format string
	values       []float64
	set          func(*flumen.Config, float64)
	paper        string
}{
	{"τ", "%.0f", []float64{25, 50, 100, 170, 250, 400, 800},
		func(c *flumen.Config, v float64) { c.Tau = int64(v) },
		"τ = 100 ≈ max pre-saturation latency; τ > 170 starves requests"},
	{"η", "%.2f", []float64{0.05, 0.15, 0.30, 0.40, 0.55, 0.70, 0.90},
		func(c *flumen.Config, v float64) { c.Eta = v },
		"η ≲ 30% is too strict; η ≳ 55% lets compute block communication"},
	{"ζ", "%.3f", []float64{0.125, 0.25, 0.50, 0.75, 1.0},
		func(c *flumen.Config, v float64) { c.Zeta = v },
		"global averaging (ζ = 1) hides hot node pairs"},
}

// sec34 is the Sec 3.4 scheduler sensitivity: ResNet50 Conv3 on Flumen-A
// at half the report's scale, one knob moved at a time from the paper's
// operating point (τ = 100 cycles, η = 0.40, ζ = 0.50).
func sec34(w io.Writer, scale int) error {
	wl, err := scaledWorkload("ResNet50Conv3", 2*scale)
	if err != nil {
		return err
	}
	base := flumen.DefaultConfig()
	digital, err := flumen.RunWorkload(wl, "Flumen-I", base)
	if err != nil {
		return err
	}
	paper, err := flumen.RunWorkload(wl, "Flumen-A", base)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n## Sec 3.4 — scheduler sensitivity (ResNet50 Conv3 at 1/%d scale, Flumen-A)\n", 2*scale)
	fmt.Fprintf(w, "\nFlumen-I (no acceleration): %d cycles. Flumen-A at the paper point (τ=100, η=0.40, ζ=0.50): %d cycles, %d grants.\n",
		digital.Cycles, paper.Cycles, paper.OffloadsGranted)
	fmt.Fprintln(w, "\n| knob | value | cycles | grants | reprograms | runtime vs paper point |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	for _, k := range knobs {
		for _, v := range k.values {
			cfg := base
			k.set(&cfg, v)
			r, err := flumen.RunWorkload(wl, "Flumen-A", cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "| %s | "+k.format+" | %d | %d | %d | %.2f× |\n",
				k.name, v, r.Cycles, r.OffloadsGranted, r.Reprograms, float64(paper.Cycles)/float64(r.Cycles))
		}
	}
	fmt.Fprintln(w, "\npaper:")
	for _, k := range knobs {
		fmt.Fprintf(w, "- %s\n", k.paper)
	}
	return nil
}

// Command flumen-sensitivity sweeps the Algorithm 1 scheduler parameters —
// partition evaluation period τ, buffer utilization threshold η, and buffer
// scan depth ζ (Sec 3.4) — reporting runtime, offload grants, and energy
// for a chosen benchmark on Flumen-A. The paper's operating point is
// τ = 100 cycles, η = 40%, ζ = 50%.
//
// Usage:
//
//	flumen-sensitivity [-benchmark name] [-scale n]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"flumen"
	"flumen/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, writes the sweeps and returns the exit
// status (2 for a bad flag or benchmark name, before any output).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flumen-sensitivity", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchFlag := fs.String("benchmark", "ResNet50Conv3", "benchmark to sweep")
	scale := fs.Int("scale", 2, "linear workload shrink factor")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *scale < 1 {
		fmt.Fprintf(stderr, "flumen-sensitivity: -scale must be at least 1 (1 = paper scale), got %d\n", *scale)
		return 2
	}
	if !slices.Contains(flumen.Benchmarks(), *benchFlag) {
		fmt.Fprintf(stderr, "flumen-sensitivity: unknown -benchmark %q; valid: %s\n", *benchFlag, strings.Join(flumen.Benchmarks(), ", "))
		return 2
	}

	var w workload.Workload
	for _, cand := range workload.ScaledAll(*scale) {
		if cand.Name() == *benchFlag {
			w = cand
		}
	}

	base := flumen.DefaultConfig()
	runAt := func(cfg flumen.Config) flumen.Result {
		res, err := flumen.RunWorkload(w, "Flumen-A", cfg)
		if err != nil {
			fmt.Fprintln(stderr, err)
			os.Exit(1)
		}
		return res
	}
	baseline := runAt(base)
	digital, err := flumen.RunWorkload(w, "Flumen-I", base)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "benchmark: %s (scale 1/%d)\n", w.Name(), *scale)
	fmt.Fprintf(stdout, "Flumen-I (no acceleration): %d cycles\n", digital.Cycles)
	fmt.Fprintf(stdout, "Flumen-A at paper point (τ=100, η=0.40, ζ=0.50): %d cycles, %d grants\n\n",
		baseline.Cycles, baseline.OffloadsGranted)

	fmt.Fprintln(stdout, "=== τ sweep (η=0.40, ζ=0.50) — paper: τ=100 ≈ max pre-saturation latency; τ>170 starves requests ===")
	fmt.Fprintf(stdout, "%-8s %10s %10s %12s %10s\n", "τ", "cycles", "grants", "reprograms", "vs base")
	for _, tau := range []int64{25, 50, 100, 170, 250, 400, 800} {
		cfg := base
		cfg.Tau = tau
		r := runAt(cfg)
		fmt.Fprintf(stdout, "%-8d %10d %10d %12d %9.2f×\n", tau, r.Cycles, r.OffloadsGranted, r.Reprograms,
			float64(baseline.Cycles)/float64(r.Cycles))
	}

	fmt.Fprintln(stdout, "\n=== η sweep (τ=100, ζ=0.50) — paper: η≲30% too strict, η≳55% lets compute block comm ===")
	fmt.Fprintf(stdout, "%-8s %10s %10s %10s\n", "η", "cycles", "grants", "vs base")
	for _, eta := range []float64{0.05, 0.15, 0.30, 0.40, 0.55, 0.70, 0.90} {
		cfg := base
		cfg.Eta = eta
		r := runAt(cfg)
		fmt.Fprintf(stdout, "%-8.2f %10d %10d %9.2f×\n", eta, r.Cycles, r.OffloadsGranted,
			float64(baseline.Cycles)/float64(r.Cycles))
	}

	fmt.Fprintln(stdout, "\n=== ζ sweep (τ=100, η=0.40) — paper: global averaging (ζ=1) hides hot node pairs ===")
	fmt.Fprintf(stdout, "%-8s %10s %10s %10s\n", "ζ", "cycles", "grants", "vs base")
	for _, zeta := range []float64{0.125, 0.25, 0.50, 0.75, 1.0} {
		cfg := base
		cfg.Zeta = zeta
		r := runAt(cfg)
		fmt.Fprintf(stdout, "%-8.3f %10d %10d %9.2f×\n", zeta, r.Cycles, r.OffloadsGranted,
			float64(baseline.Cycles)/float64(r.Cycles))
	}
	return 0
}

// Command flumen-util regenerates Fig. 1: photonic link utilization over
// execution for the Image Blur and VGG16 FC applications, with bandwidth
// sensitivity by under-provisioning the WDM link (16, 32, 64 wavelengths ⇔
// 160, 320, 640 Gbps at 10 Gbps modulation).
//
// It also carries the registry management subcommands:
//
//	flumen-util models {register|list|rm} [flags]
//
// Usage:
//
//	flumen-util [-benchmark name] [-scale n] [-trace]
//	flumen-util models register -server http://host:9090 [-file spec.json]
//	flumen-util models list -server http://host:9090
//	flumen-util models rm -server http://host:9090 name@version
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

func main() {
	if len(os.Args) > 1 && os.Args[1] == "models" {
		os.Exit(runModels(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the Fig. 1 command: it parses args, writes the table and returns
// the exit status (2 for a bad flag or benchmark name, before any output).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flumen-util", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchFlag := fs.String("benchmark", "", "ImageBlur | VGG16FC (default: both)")
	scale := fs.Int("scale", 1, "linear workload shrink factor")
	trace := fs.Bool("trace", false, "print the windowed utilization trace")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *scale < 1 {
		fmt.Fprintf(stderr, "flumen-util: -scale must be at least 1 (1 = paper scale), got %d\n", *scale)
		return 2
	}
	names := []string{"ImageBlur", "VGG16FC"}
	if *benchFlag != "" {
		if !slices.Contains(flumen.Benchmarks(), *benchFlag) {
			fmt.Fprintf(stderr, "flumen-util: unknown -benchmark %q; valid: %s\n", *benchFlag, strings.Join(flumen.Benchmarks(), ", "))
			return 2
		}
		names = []string{*benchFlag}
	}
	fmt.Fprintln(stdout, "=== Fig. 1: photonic link utilization vs WDM provisioning (Flumen-I, 16 nodes) ===")
	fmt.Fprintf(stdout, "%-12s %-6s %-12s %14s\n", "benchmark", "λs", "BW (Gbps)", "avg link util")
	for _, name := range names {
		var w workload.Workload
		for _, cand := range workload.ScaledAll(*scale) {
			if cand.Name() == name {
				w = cand
			}
		}
		for _, lambdas := range []int{16, 32, 64} {
			cfg := flumen.DefaultConfig()
			cfg.Wavelengths = lambdas
			cfg.UtilWindow = 500
			res, err := flumen.RunWorkload(w, "Flumen-I", cfg)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			fmt.Fprintf(stdout, "%-12s %-6d %-12d %13.2f%%\n", name, lambdas, lambdas*10, 100*res.AvgLinkUtilization)
			if *trace {
				fmt.Fprint(stdout, sparkline(res.UtilizationTrace))
			}
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintln(stdout, "paper: 64 λ → 5.5% (Blur) / 1.9% (VGG FC); 16 λ → 19.7% / 7.5%")
	return 0
}

// sparkline renders a utilization trace as coarse text bars.
func sparkline(trace []float64) string {
	if len(trace) == 0 {
		return ""
	}
	const width = 72
	step := (len(trace) + width - 1) / width
	var b strings.Builder
	b.WriteString("  trace: ")
	glyphs := []rune(" ▁▂▃▄▅▆▇█")
	for i := 0; i < len(trace); i += step {
		var m float64
		for j := i; j < i+step && j < len(trace); j++ {
			if trace[j] > m {
				m = trace[j]
			}
		}
		idx := int(m * float64(len(glyphs)-1))
		if idx >= len(glyphs) {
			idx = len(glyphs) - 1
		}
		b.WriteRune(glyphs[idx])
	}
	b.WriteString("\n")
	return b.String()
}

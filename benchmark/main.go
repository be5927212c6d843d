// Command benchmark is the repository's standing benchmark: five serving
// workloads against in-process flumend / flumen-router fleets and two
// full-system simulator workloads, with every end-to-end metric measured
// with tracing off and every per-layer metric measured from outside the
// program by a separate traced run. See README.md beside this file.
//
//	bash benchmark/run.sh --workload serve_mixed --seed 1 --seconds 10 --trace 0
//	go run ./benchmark -seed 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	phaseEndToEnd = "end_to_end"
	phasePerLayer = "per_layer"
)

// benchProcs is the GOMAXPROCS every run uses: clients, router and servers
// take turns on one CPU. README.md says what was measured before it was
// fixed at 1.
const benchProcs = 1

// env is what a workload is given: the seed its inputs come from, how long
// to measure, the yardstick the machine's speed is read from, and where
// spans go.
type env struct {
	seed    int64
	seconds time.Duration
	quick   bool
	yard    *yardstick
	spans   *spanLog
}

// setupRuns is how many times a workload sets up; setup_s is the median.
func (e *env) setupRuns() int {
	if e.quick {
		return 2
	}
	return setupRuns
}

// workload is one set of inputs and the system that answers them.
type workload interface {
	name() string
	// prepare makes the inputs from the seed.
	prepare(e *env) error
	// endToEnd measures the end-to-end metrics with tracing off.
	endToEnd(e *env) (*outcome, error)
	// layers is the traced run: it measures the per-layer metrics and
	// records spans into e.spans.
	layers(e *env) (*outcome, error)
}

func workloads() []workload {
	var ws []workload
	for _, sp := range servingSpecs {
		ws = append(ws, &servingWorkload{spec: sp})
	}
	return append(ws, &simSuite{}, &nopSweep{})
}

// phaseCount is requests (or simulator calls) sent, answered correctly and
// failed in one phase of a run.
type phaseCount struct {
	Name   string `json:"name"`
	Sent   int    `json:"sent"`
	OK     int    `json:"ok"`
	Failed int    `json:"failed"`
}

// outcome is what one phase of one workload measured.
type outcome struct {
	Workload  string
	Phase     string
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	Phases    []phaseCount
	Digests   map[string]string
	Notes     []string
}

func newOutcome(workload, phase string) *outcome {
	return &outcome{Workload: workload, Phase: phase, Correct: true, Metrics: map[string]float64{}, Digests: map[string]string{}}
}

func (o *outcome) fail(why string) {
	o.Correct = false
	o.Notes = append(o.Notes, "FAILED: "+why)
}

func (o *outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

func (o *outcome) phase(name string, t tally) {
	o.Phases = append(o.Phases, phaseCount{Name: name, Sent: t.sent, OK: t.ok, Failed: t.failed()})
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]valueUnits `json:"metrics"`
}

type valueUnits struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the outcome: one "workload metric value unit" line per
// metric the manifest lists for the phase, then the JSON result line. A
// metric the manifest does not name, or one it names that the workload did
// not produce in its end-to-end phase, is an error; per-layer metrics that
// do not apply to the workload read 0.
func report(w io.Writer, m *manifest, o *outcome) (resultLine, error) {
	defs := m.EndToEnd
	if o.Phase == phasePerLayer {
		defs = m.PerLayer
	}
	known := map[string]bool{}
	line := resultLine{Correct: o.Correct, Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]valueUnits{}}
	for _, d := range defs {
		known[d.Name] = true
		v, ok := o.Metrics[d.Name]
		if !ok && o.Phase == phaseEndToEnd && o.Correct {
			return line, fmt.Errorf("%s did not measure end-to-end metric %s", o.Workload, d.Name)
		}
		line.Metrics[d.Name] = valueUnits{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "%s %s %v %s\n", o.Workload, d.Name, v, d.Unit)
	}
	for name := range o.Metrics {
		if !known[name] {
			return line, fmt.Errorf("%s measured %s, which BENCHMARK.json does not list under %s", o.Workload, name, o.Phase)
		}
	}
	for _, p := range o.Phases {
		fmt.Fprintf(w, "# %s %s %s: sent %d ok %d failed %d\n", o.Workload, o.Phase, p.Name, p.Sent, p.OK, p.Failed)
	}
	for _, k := range sortedKeys(o.Digests) {
		fmt.Fprintf(w, "# %s digest %s %s\n", o.Workload, k, o.Digests[k])
	}
	for _, n := range o.Notes {
		fmt.Fprintf(w, "# %s %s\n", o.Workload, n)
	}
	if line.Attempted < 1 {
		line.Attempted = 1
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return line, err
	}
	fmt.Fprintf(w, "%s\n", raw)
	return line, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func main() {
	// flumend and the router log drains and slow requests; standard output
	// carries metrics only.
	log.SetOutput(io.Discard)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed      = fs.Int64("seed", 1, "workload seed; the program under test only ever sees the generated inputs")
		names     = fs.String("workload", "", "comma-separated workloads to run (default: all)")
		seconds   = fs.Float64("seconds", 0, "seconds each phase measures (default: run_seconds of BENCHMARK.json; 0.15 with -quick)")
		trace     = fs.String("trace", "", "0: end-to-end metrics only; 1: traced run and per-layer metrics only; empty: both")
		quick     = fs.Bool("quick", false, "about 1/25 of the input sizes, for tests; numbers mean nothing")
		out       = fs.String("out", "benchmark/out/results.json", "results of this run with provenance, for -compare")
		traceDir  = fs.String("trace-dir", "benchmark/out", "directory for trace-<workload>.json")
		manifestP = fs.String("manifest", "BENCHMARK.json", "path of BENCHMARK.json")
		compare   = fs.Bool("compare", false, "compare two results files: -compare a.json b.json")
		record    = fs.String("record-digests", "", "write this run's simulator statistics digests into this file (benchmark/sim_digests.json)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	m, err := loadManifest(*manifestP)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two results files")
			return 2
		}
		return compareFiles(stdout, stderr, m, fs.Arg(0), fs.Arg(1))
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fmt.Fprintln(stderr, "benchmark: -trace is 0 or 1")
		return 2
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(benchProcs))
	e := &env{seed: *seed, quick: *quick, seconds: time.Duration(*seconds * float64(time.Second))}
	if e.seconds <= 0 {
		e.seconds = time.Duration(m.RunSeconds) * time.Second
		if e.quick {
			e.seconds = 150 * time.Millisecond
		}
	}

	selected, err := selectWorkloads(m, *names)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	res := newResultsFile(m, e)
	status := 0
	for _, w := range selected {
		if err := w.prepare(e); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name(), err)
			return 1
		}
		for _, phase := range []struct {
			skip string
			name string
			run  func(*env) (*outcome, error)
		}{{"1", phaseEndToEnd, w.endToEnd}, {"0", phasePerLayer, w.layers}} {
			if *trace == phase.skip {
				continue
			}
			e.spans, e.yard = newSpanLog(), newYardstick(e.quick)
			o, err := phase.run(e)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name(), err)
				return 1
			}
			line, err := report(stdout, m, o)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			if !o.Correct {
				status = 1
			}
			res.add(m, o, line)
			if phase.name == phasePerLayer {
				if err := e.spans.write(*traceDir, w.name()); err != nil {
					fmt.Fprintln(stderr, "benchmark:", err)
					return 1
				}
			}
		}
	}
	if err := res.write(*out); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *record != "" {
		if err := recordDigests(*record, e, res); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return status
}

func selectWorkloads(m *manifest, names string) ([]workload, error) {
	all := workloads()
	for _, w := range all {
		if _, ok := m.workload(w.name()); !ok {
			return nil, fmt.Errorf("workload %s is not listed in BENCHMARK.json", w.name())
		}
	}
	if len(all) != len(m.Workloads) {
		return nil, fmt.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(m.Workloads), len(all))
	}
	if names == "" {
		return all, nil
	}
	var out []workload
	for _, n := range strings.Split(names, ",") {
		found := false
		for _, w := range all {
			if w.name() == n {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
	}
	return out, nil
}

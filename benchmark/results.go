package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// resultsFile is what -out writes: the latest value of every metric with
// its unit, direction and bound, and enough provenance to tell whether two
// files may be compared. BENCHMARK.json itself holds the definition only.
type resultsFile struct {
	Provenance provenance                 `json:"provenance"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

type provenance struct {
	Command    []string `json:"command"`
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	OSArch     string   `json:"os_arch"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Quick      bool     `json:"quick"`
	Generated  string   `json:"generated"`
}

type workloadResult struct {
	EndToEnd map[string]measured `json:"end_to_end,omitempty"`
	PerLayer map[string]measured `json:"per_layer,omitempty"`
	Phases   []phaseCount        `json:"phases"`
	Digests  map[string]string   `json:"digests"`
	Correct  bool                `json:"correct"`
}

type measured struct {
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func newResultsFile(m *manifest, e *env) *resultsFile {
	commit := os.Getenv("BENCH_COMMIT") // set by run.sh, which builds without VCS stamping
	if bi, ok := debug.ReadBuildInfo(); ok && commit == "" {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "" {
		commit = "unknown"
	}
	return &resultsFile{
		Provenance: provenance{
			Command:    m.Command,
			Commit:     commit,
			GoVersion:  runtime.Version(),
			OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Seed:       e.seed,
			Seconds:    e.seconds.Seconds(),
			Quick:      e.quick,
			Generated:  time.Now().UTC().Format(time.RFC3339),
		},
		Workloads: map[string]*workloadResult{},
	}
}

func (r *resultsFile) add(m *manifest, o *outcome, line resultLine) {
	w := r.Workloads[o.Workload]
	if w == nil {
		w = &workloadResult{Digests: map[string]string{}, Correct: true}
		r.Workloads[o.Workload] = w
	}
	defs, into := m.EndToEnd, &w.EndToEnd
	if o.Phase == phasePerLayer {
		defs, into = m.PerLayer, &w.PerLayer
	}
	*into = map[string]measured{}
	for _, d := range defs {
		(*into)[d.Name] = measured{Value: line.Metrics[d.Name].Value, Unit: d.Unit, Better: d.Better, Bound: d.Bound}
	}
	for _, p := range o.Phases {
		p.Name = o.Phase + "/" + p.Name
		w.Phases = append(w.Phases, p)
	}
	for k, v := range o.Digests {
		w.Digests[k] = v
	}
	w.Correct = w.Correct && o.Correct
}

func (r *resultsFile) write(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultsFile
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// exactTolerance is how far a metric that repeats exactly may move between
// two runs of one seed: the last bits of a float sum, no more.
const exactTolerance = 1e-12

// setupSlackS is the absolute slack setup_s gets on top of its bound: a
// set-up of a few milliseconds moves by more than a quarter between runs.
const setupSlackS = 0.1

// compareFiles prints, for every workload and end-to-end metric both files
// hold, how far b is from a against the metric's bound, and returns 1 when
// b is worse than a by more than the bound anywhere. result_ratio is a
// function of the inputs alone, so with equal seeds it must be equal; so
// must the request, conformance and simulator digests.
func compareFiles(stdout, stderr io.Writer, m *manifest, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	sameInputs := a.Provenance.Seed == b.Provenance.Seed && a.Provenance.Quick == b.Provenance.Quick
	status := 0
	flag := func(format string, args ...any) {
		fmt.Fprintf(stdout, "REGRESSION "+format+"\n", args...)
		status = 1
	}
	for _, wd := range m.Workloads {
		wa, wb := a.Workloads[wd.Name], b.Workloads[wd.Name]
		if wa == nil || wb == nil {
			continue
		}
		if !wa.Correct || !wb.Correct {
			flag("%s: a run was not correct", wd.Name)
		}
		if sameInputs {
			for _, k := range sortedKeys(wa.Digests) {
				if db, ok := wb.Digests[k]; ok && db != wa.Digests[k] {
					flag("%s: %s digest differs", wd.Name, k)
				}
			}
		}
		for _, d := range m.EndToEnd {
			va, okA := wa.EndToEnd[d.Name]
			vb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			worse := vb.Value - va.Value // positive = b is worse
			if d.Better == "higher" {
				worse = -worse
			}
			rel := worse / math.Abs(va.Value)
			bound := *d.Bound
			switch {
			case d.Name == "result_ratio" && sameInputs:
				bound = exactTolerance
				if math.Abs(rel) > bound {
					flag("%s %s: %v against %v, must be equal for one seed", wd.Name, d.Name, vb.Value, va.Value)
				}
			case d.Name == "setup_s" && worse <= setupSlackS:
			case rel > bound:
				flag("%s %s: %v against %v %s, %+.1f%% worse, bound %.1f%%", wd.Name, d.Name, vb.Value, va.Value, d.Unit, 100*rel, 100*bound)
			}
			fmt.Fprintf(stdout, "%s %s %v -> %v %s (%+.2f%% worse, bound %.4g%%)\n", wd.Name, d.Name, va.Value, vb.Value, d.Unit, 100*rel, 100*bound)
		}
	}
	return status
}

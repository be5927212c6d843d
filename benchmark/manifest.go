package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// BENCHMARK.json at the repository root is the one list of workloads and
// metrics: the program reads names, units, directions and bounds from it
// and refuses to report a metric it does not name, so the file and the
// program cannot drift apart.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Limits of the benchmark contract.
const (
	maxWorkloads = 8
	maxEndToEnd  = 16
	maxPerLayer  = 128
	maxBound     = 0.25
)

func loadManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

func (m *manifest) validate() error {
	if n := len(m.Workloads); n < 2 || n > maxWorkloads {
		return fmt.Errorf("%d workloads, want 2 to %d", n, maxWorkloads)
	}
	if n := len(m.EndToEnd); n < 1 || n > maxEndToEnd {
		return fmt.Errorf("%d end-to-end metrics, want 1 to %d", n, maxEndToEnd)
	}
	if n := len(m.PerLayer); n < 1 || n > maxPerLayer {
		return fmt.Errorf("%d per-layer metrics, want 1 to %d", n, maxPerLayer)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range m.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why must be 1 to 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range m.EndToEnd {
		if err := use(d.Name); err != nil {
			return err
		}
		if err := d.check(); err != nil {
			return err
		}
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > maxBound {
			return fmt.Errorf("end-to-end metric %s needs a bound in (0, %g]", d.Name, maxBound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup {
		return fmt.Errorf("end_to_end must hold setup_s with unit s, better lower")
	}
	for _, d := range m.PerLayer {
		if err := use(d.Name); err != nil {
			return err
		}
		if err := d.check(); err != nil {
			return err
		}
		if d.Bound != nil {
			return fmt.Errorf("per-layer metric %s must not carry a bound", d.Name)
		}
	}
	return nil
}

func (d metricDef) check() error {
	if !unitRE.MatchString(d.Unit) {
		return fmt.Errorf("metric %s: unit %q does not match %s", d.Name, d.Unit, unitRE)
	}
	if d.Better != "higher" && d.Better != "lower" {
		return fmt.Errorf("metric %s: better is %q, want higher or lower", d.Name, d.Better)
	}
	return nil
}

func (m *manifest) workload(name string) (workloadDef, bool) {
	for _, w := range m.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

package cluster

import (
	"bytes"
	"os"
	"regexp"
	"testing"
	"time"
)

// uptimeLine matches the one exposition line that depends on the clock.
var uptimeLine = regexp.MustCompile(`(?m)^(\w+_uptime_seconds) .*$`)

// TestMetricsExpositionGolden renders the router's /metrics after a fixed
// sequence of observations and holds it byte for byte to
// testdata/metrics.golden, with the uptime gauge masked.
func TestMetricsExpositionGolden(t *testing.T) {
	m := newRouterMetrics()
	m.observeRequest("matmul", 3*time.Millisecond, false)
	m.observeRequest("matmul", 40*time.Millisecond, true)
	m.observeRequest("infer", 20*time.Second, false)
	m.observeHop(2 * time.Millisecond)
	m.observeHop(700 * time.Microsecond)
	m.observeRouted(true)
	m.observeRouted(false)
	m.add(&m.retries, 2)
	m.add(&m.spills, 1)
	m.add(&m.noBackend, 1)
	m.add(&m.modelRegs, 3)
	m.add(&m.modelReplays, 1)

	backends := []BackendStats{
		{Name: "http://n0", Node: "flumend-a", State: StateActive, Requests: 10, Errors: 1, Spills: 2, Probes: 30, Reinstates: 1},
		{Name: "http://n1", Node: "flumend-b", State: StateEjected, Degraded: true, Requests: 4, Errors: 3, Probes: 28, ProbeFailures: 5, Ejections: 1},
	}
	var buf bytes.Buffer
	m.write(&buf, backends, 7.5)
	got := uptimeLine.ReplaceAll(buf.Bytes(), []byte("$1 <masked>"))
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/metrics differs from testdata/metrics.golden:\n%s", got)
	}
}

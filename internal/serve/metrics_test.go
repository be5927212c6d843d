package serve

import (
	"bytes"
	"os"
	"regexp"
	"testing"
	"time"

	"flumen"
	"flumen/internal/registry"
	"flumen/internal/trace"
)

// uptimeLine matches the one exposition line that depends on the clock.
var uptimeLine = regexp.MustCompile(`(?m)^(\w+_uptime_seconds) .*$`)

// TestMetricsExpositionGolden renders /metrics after a fixed sequence of
// observations and holds it byte for byte to testdata/metrics.golden, with
// the uptime gauge masked.
func TestMetricsExpositionGolden(t *testing.T) {
	m := newMetrics()
	m.observeRequest("matmul", 3*time.Millisecond, outcomeOK)
	m.observeRequest("matmul", 40*time.Millisecond, outcomeDeadline)
	m.observeRequest("conv2d", 700*time.Microsecond, outcomeOK)
	m.observeRequest("infer", 20*time.Second, outcomeError)
	m.observeRequest("infer", time.Millisecond, outcomeCancelled)
	m.observeAdmission("matmul", outcomeRejected)
	m.observeRejected()
	m.observeCancelled()
	m.observeByRef("matmul", true)
	m.observeByRef("infer", false)
	m.observeRegistration()
	m.observeBatch(3, 0)
	m.observeBatch(1, 0)
	var rec trace.Record
	rec.Durs[trace.StageDecode] = 200 * time.Microsecond
	rec.Durs[trace.StageExec] = 4 * time.Millisecond
	m.observeStages(rec)
	rec.Durs[trace.StageWrite] = 2500 * time.Microsecond
	m.observeStages(rec)

	acc := flumen.Stats{
		Partitions: 4, EnergyPJ: 1234.5, Programs: 7, Batches: 9,
		Cache: flumen.CacheStats{Hits: 5, Misses: 2, Evictions: 1, Entries: 6, Capacity: 256, Pinned: 3},
		Health: &flumen.HealthStats{
			Enabled: true, Healthy: 2, Suspect: 1, Quarantined: 1, InService: 3, Probes: 40, Quarantines: 1,
			Recalibrations: 1, MaxProbeError: 0.031, ProbeThreshold: 0.02,
		},
	}
	reg := registry.Stats{Models: 2, Prewarmed: 1, PrewarmPending: 1, Registrations: 3, Removals: 1}
	var buf bytes.Buffer
	m.write(&buf, 2, 256, acc, reg)
	got := uptimeLine.ReplaceAll(buf.Bytes(), []byte("$1 <masked>"))
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/metrics differs from testdata/metrics.golden:\n%s", got)
	}
}

package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"flumen"
	"flumen/internal/registry"
	"flumen/internal/trace"
)

// Final request outcomes, the label values of
// flumend_request_outcomes_total. "cancelled" (client went away) is
// deliberately separated from "deadline": a vanished client is not a
// backend failure, so it is excluded from flumend_errors_total and from the
// latency histograms that feed timeout alerts.
const (
	outcomeOK        = "ok"
	outcomeRejected  = "rejected"  // admission-time 503 (queue full, draining)
	outcomeDeadline  = "deadline"  // 504, the request's deadline expired
	outcomeCancelled = "cancelled" // client cancelled / disconnected
	outcomeError     = "error"     // executor-surfaced errors (registry 404s, internal)
)

// metrics is a small self-contained registry exported in Prometheus text
// format at /metrics. Everything the exposition needs from the accelerator
// comes through the public Stats() snapshot; nothing reaches into engine
// internals.
type metrics struct {
	start time.Time

	mu sync.Mutex
	// Per-endpoint request/error/latency accounting.
	requests map[string]int64
	errors   map[string]int64
	hists    map[string]*Histogram
	// outcomes counts every answered request by endpoint and final outcome
	// (admission-time rejections included, unlike requests_total).
	outcomes map[string]map[string]int64
	// stages holds one latency histogram per trace stage, fed by completed
	// traces (flumend_stage_seconds).
	stages [trace.NumStages]*Histogram
	// Admission-control accounting.
	rejected  int64 // queue-full 503s
	cancelled int64 // requests abandoned before execution (deadline/client gone)
	// Batcher accounting.
	batchesExecuted int64 // engine calls issued by the scheduler
	batchedRequests int64 // requests served by those calls
	maxBatch        int64 // largest coalesced batch observed
	// execNanos accumulates wall time the executor spent inside engine
	// calls; against uptime it yields the fabric-busy fraction (the
	// executor drives all partitions while a call is in flight).
	execNanos int64
	// Model-registry accounting.
	byref         map[string]int64 // by-reference requests per endpoint
	prewarmHits   int64            // by-reference requests served by an already-prewarmed model
	registrations int64            // successful POST /v1/models calls (idempotent repeats included)
}

func newMetrics() *metrics {
	m := &metrics{
		start:    time.Now(),
		requests: make(map[string]int64),
		errors:   make(map[string]int64),
		hists:    make(map[string]*Histogram),
		outcomes: make(map[string]map[string]int64),
		byref:    make(map[string]int64),
	}
	for i := range m.stages {
		m.stages[i] = NewHistogram()
	}
	return m
}

func (m *metrics) observeRequest(endpoint string, d time.Duration, outcome string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[endpoint]++
	m.bumpOutcome(endpoint, outcome)
	if outcome == outcomeOK {
		// fall through to the histogram
	} else if outcome == outcomeCancelled {
		// The client left: its "latency" measures the client's patience, not
		// this server, so it stays out of both the error counter and the
		// latency histogram that feed timeout alerts.
		return
	} else {
		m.errors[endpoint]++
	}
	h := m.hists[endpoint]
	if h == nil {
		h = NewHistogram()
		m.hists[endpoint] = h
	}
	h.Observe(d.Seconds())
}

// observeAdmission books the outcome of a request rejected at admission,
// which never counts toward requests_total (that counter means "admitted").
func (m *metrics) observeAdmission(endpoint, outcome string) {
	m.mu.Lock()
	m.bumpOutcome(endpoint, outcome)
	m.mu.Unlock()
}

// bumpOutcome increments the per-endpoint outcome counter; callers hold mu.
func (m *metrics) bumpOutcome(endpoint, outcome string) {
	byOutcome := m.outcomes[endpoint]
	if byOutcome == nil {
		byOutcome = make(map[string]int64)
		m.outcomes[endpoint] = byOutcome
	}
	byOutcome[outcome]++
}

// observeStages folds one completed trace into the per-stage histograms.
// Stages the request never entered (zero duration) are skipped, so e.g.
// router-only stages never pollute flumend's exposition.
func (m *metrics) observeStages(rec trace.Record) {
	m.mu.Lock()
	for s := trace.Stage(0); s < trace.NumStages; s++ {
		if d := rec.Duration(s); d > 0 {
			m.stages[s].Observe(d.Seconds())
		}
	}
	m.mu.Unlock()
}

func (m *metrics) observeRejected() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

func (m *metrics) observeCancelled() {
	m.mu.Lock()
	m.cancelled++
	m.mu.Unlock()
}

func (m *metrics) observeByRef(endpoint string, prewarmed bool) {
	m.mu.Lock()
	m.byref[endpoint]++
	if prewarmed {
		m.prewarmHits++
	}
	m.mu.Unlock()
}

func (m *metrics) observeRegistration() {
	m.mu.Lock()
	m.registrations++
	m.mu.Unlock()
}

func (m *metrics) observeBatch(requests int, execTime time.Duration) {
	m.mu.Lock()
	m.batchesExecuted++
	m.batchedRequests += int64(requests)
	if int64(requests) > m.maxBatch {
		m.maxBatch = int64(requests)
	}
	m.execNanos += execTime.Nanoseconds()
	m.mu.Unlock()
}

// write renders the exposition. queueDepth/queueCap are sampled at scrape
// time; acc and reg are the accelerator's and the registry's snapshots.
func (m *metrics) write(w io.Writer, queueDepth, queueCap int, acc flumen.Stats, reg registry.Stats) {
	m.mu.Lock()
	defer m.mu.Unlock()

	up := time.Since(m.start).Seconds()
	fmt.Fprintf(w, "# HELP flumend_uptime_seconds Time since server start.\n")
	fmt.Fprintf(w, "# TYPE flumend_uptime_seconds gauge\n")
	fmt.Fprintf(w, "flumend_uptime_seconds %g\n", up)

	fmt.Fprintf(w, "# HELP flumend_requests_total Requests admitted per endpoint.\n")
	fmt.Fprintf(w, "# TYPE flumend_requests_total counter\n")
	for _, ep := range SortedKeys(m.requests) {
		fmt.Fprintf(w, "flumend_requests_total{endpoint=%q} %d\n", ep, m.requests[ep])
	}
	fmt.Fprintf(w, "# HELP flumend_errors_total Failed requests per endpoint.\n")
	fmt.Fprintf(w, "# TYPE flumend_errors_total counter\n")
	for _, ep := range SortedKeys(m.errors) {
		fmt.Fprintf(w, "flumend_errors_total{endpoint=%q} %d\n", ep, m.errors[ep])
	}

	fmt.Fprintf(w, "# HELP flumend_request_outcomes_total Final request outcomes per endpoint; cancelled means the client went away and is not an error.\n")
	fmt.Fprintf(w, "# TYPE flumend_request_outcomes_total counter\n")
	for _, ep := range SortedKeys(m.outcomes) {
		for _, oc := range SortedKeys(m.outcomes[ep]) {
			fmt.Fprintf(w, "flumend_request_outcomes_total{endpoint=%q,outcome=%q} %d\n", ep, oc, m.outcomes[ep][oc])
		}
	}

	fmt.Fprintf(w, "# HELP flumend_rejected_total Requests shed with 503 because the admission queue was full.\n")
	fmt.Fprintf(w, "# TYPE flumend_rejected_total counter\n")
	fmt.Fprintf(w, "flumend_rejected_total %d\n", m.rejected)
	fmt.Fprintf(w, "# HELP flumend_cancelled_total Queued requests abandoned before execution (deadline or client gone).\n")
	fmt.Fprintf(w, "# TYPE flumend_cancelled_total counter\n")
	fmt.Fprintf(w, "flumend_cancelled_total %d\n", m.cancelled)

	fmt.Fprintf(w, "# HELP flumend_queue_depth Requests currently waiting in the admission queue.\n")
	fmt.Fprintf(w, "# TYPE flumend_queue_depth gauge\n")
	fmt.Fprintf(w, "flumend_queue_depth %d\n", queueDepth)
	fmt.Fprintf(w, "# HELP flumend_queue_capacity Admission queue capacity.\n")
	fmt.Fprintf(w, "# TYPE flumend_queue_capacity gauge\n")
	fmt.Fprintf(w, "flumend_queue_capacity %d\n", queueCap)

	fmt.Fprintf(w, "# HELP flumend_batches_executed_total Engine calls issued by the scheduler.\n")
	fmt.Fprintf(w, "# TYPE flumend_batches_executed_total counter\n")
	fmt.Fprintf(w, "flumend_batches_executed_total %d\n", m.batchesExecuted)
	fmt.Fprintf(w, "# HELP flumend_batched_requests_total Requests served by those engine calls (ratio to batches = mean coalescing).\n")
	fmt.Fprintf(w, "# TYPE flumend_batched_requests_total counter\n")
	fmt.Fprintf(w, "flumend_batched_requests_total %d\n", m.batchedRequests)
	fmt.Fprintf(w, "# HELP flumend_batch_size_max Largest coalesced batch observed.\n")
	fmt.Fprintf(w, "# TYPE flumend_batch_size_max gauge\n")
	fmt.Fprintf(w, "flumend_batch_size_max %d\n", m.maxBatch)

	busy := float64(m.execNanos) / 1e9
	util := 0.0
	if up > 0 {
		util = busy / up
	}
	fmt.Fprintf(w, "# HELP flumend_partitions Compute partitions carved from the fabric.\n")
	fmt.Fprintf(w, "# TYPE flumend_partitions gauge\n")
	fmt.Fprintf(w, "flumend_partitions %d\n", acc.Partitions)
	fmt.Fprintf(w, "# HELP flumend_partition_utilization Fraction of uptime the executor spent driving the fabric (all partitions engaged while an engine call is in flight).\n")
	fmt.Fprintf(w, "# TYPE flumend_partition_utilization gauge\n")
	fmt.Fprintf(w, "flumend_partition_utilization %g\n", util)

	fmt.Fprintf(w, "# HELP flumend_cache_hits_total Weight-program cache hits.\n")
	fmt.Fprintf(w, "# TYPE flumend_cache_hits_total counter\n")
	fmt.Fprintf(w, "flumend_cache_hits_total %d\n", acc.Cache.Hits)
	fmt.Fprintf(w, "# HELP flumend_cache_misses_total Weight-program cache misses.\n")
	fmt.Fprintf(w, "# TYPE flumend_cache_misses_total counter\n")
	fmt.Fprintf(w, "flumend_cache_misses_total %d\n", acc.Cache.Misses)
	fmt.Fprintf(w, "# HELP flumend_cache_evictions_total Weight-program cache evictions.\n")
	fmt.Fprintf(w, "# TYPE flumend_cache_evictions_total counter\n")
	fmt.Fprintf(w, "flumend_cache_evictions_total %d\n", acc.Cache.Evictions)
	fmt.Fprintf(w, "# HELP flumend_cache_entries Compiled programs resident in the cache.\n")
	fmt.Fprintf(w, "# TYPE flumend_cache_entries gauge\n")
	fmt.Fprintf(w, "flumend_cache_entries %d\n", acc.Cache.Entries)
	fmt.Fprintf(w, "# HELP flumend_cache_capacity Weight-program cache capacity.\n")
	fmt.Fprintf(w, "# TYPE flumend_cache_capacity gauge\n")
	fmt.Fprintf(w, "flumend_cache_capacity %d\n", acc.Cache.Capacity)
	fmt.Fprintf(w, "# HELP flumend_cache_pinned Cache entries pinned against eviction by registered models.\n")
	fmt.Fprintf(w, "# TYPE flumend_cache_pinned gauge\n")
	fmt.Fprintf(w, "flumend_cache_pinned %d\n", acc.Cache.Pinned)

	fmt.Fprintf(w, "# HELP flumend_energy_picojoules_total Accumulated photonic compute energy (Fig. 12b model).\n")
	fmt.Fprintf(w, "# TYPE flumend_energy_picojoules_total counter\n")
	fmt.Fprintf(w, "flumend_energy_picojoules_total %g\n", acc.EnergyPJ)
	fmt.Fprintf(w, "# HELP flumend_programs_total Phase-programming events.\n")
	fmt.Fprintf(w, "# TYPE flumend_programs_total counter\n")
	fmt.Fprintf(w, "flumend_programs_total %d\n", acc.Programs)
	fmt.Fprintf(w, "# HELP flumend_lambda_batches_total WDM λ-batches streamed.\n")
	fmt.Fprintf(w, "# TYPE flumend_lambda_batches_total counter\n")
	fmt.Fprintf(w, "flumend_lambda_batches_total %d\n", acc.Batches)

	if h := acc.Health; h != nil && h.Enabled {
		fmt.Fprintf(w, "# HELP flumend_health_partitions Partitions by health state.\n")
		fmt.Fprintf(w, "# TYPE flumend_health_partitions gauge\n")
		fmt.Fprintf(w, "flumend_health_partitions{state=\"healthy\"} %d\n", h.Healthy)
		fmt.Fprintf(w, "flumend_health_partitions{state=\"suspect\"} %d\n", h.Suspect)
		fmt.Fprintf(w, "flumend_health_partitions{state=\"quarantined\"} %d\n", h.Quarantined)
		fmt.Fprintf(w, "flumend_health_partitions{state=\"recalibrating\"} %d\n", h.Recalibrating)
		fmt.Fprintf(w, "# HELP flumend_health_in_service Partitions currently accepting work (healthy + suspect).\n")
		fmt.Fprintf(w, "# TYPE flumend_health_in_service gauge\n")
		fmt.Fprintf(w, "flumend_health_in_service %d\n", h.InService)
		fmt.Fprintf(w, "# HELP flumend_health_probes_total Calibration probes run between work items.\n")
		fmt.Fprintf(w, "# TYPE flumend_health_probes_total counter\n")
		fmt.Fprintf(w, "flumend_health_probes_total %d\n", h.Probes)
		fmt.Fprintf(w, "# HELP flumend_health_quarantines_total Partitions pulled from service after repeated failing probes.\n")
		fmt.Fprintf(w, "# TYPE flumend_health_quarantines_total counter\n")
		fmt.Fprintf(w, "flumend_health_quarantines_total %d\n", h.Quarantines)
		fmt.Fprintf(w, "# HELP flumend_health_recalibrations_total Quarantined partitions recalibrated and returned to service.\n")
		fmt.Fprintf(w, "# TYPE flumend_health_recalibrations_total counter\n")
		fmt.Fprintf(w, "flumend_health_recalibrations_total %d\n", h.Recalibrations)
		fmt.Fprintf(w, "# HELP flumend_health_recal_failures_total Recalibration attempts abandoned after the retry budget.\n")
		fmt.Fprintf(w, "# TYPE flumend_health_recal_failures_total counter\n")
		fmt.Fprintf(w, "flumend_health_recal_failures_total %d\n", h.RecalFailures)
		fmt.Fprintf(w, "# HELP flumend_health_probe_error_max Worst last-probe matrix error across partitions.\n")
		fmt.Fprintf(w, "# TYPE flumend_health_probe_error_max gauge\n")
		fmt.Fprintf(w, "flumend_health_probe_error_max %g\n", h.MaxProbeError)
		fmt.Fprintf(w, "# HELP flumend_health_probe_threshold Probe error threshold that marks a partition suspect.\n")
		fmt.Fprintf(w, "# TYPE flumend_health_probe_threshold gauge\n")
		fmt.Fprintf(w, "flumend_health_probe_threshold %g\n", h.ProbeThreshold)
	}

	fmt.Fprintf(w, "# HELP flumend_registry_models Models currently registered.\n")
	fmt.Fprintf(w, "# TYPE flumend_registry_models gauge\n")
	fmt.Fprintf(w, "flumend_registry_models %d\n", reg.Models)
	fmt.Fprintf(w, "# HELP flumend_registry_prewarmed_models Registered models whose block programs are compiled and pinned.\n")
	fmt.Fprintf(w, "# TYPE flumend_registry_prewarmed_models gauge\n")
	fmt.Fprintf(w, "flumend_registry_prewarmed_models %d\n", reg.Prewarmed)
	fmt.Fprintf(w, "# HELP flumend_registry_prewarm_pending Models waiting in the background prewarm queue.\n")
	fmt.Fprintf(w, "# TYPE flumend_registry_prewarm_pending gauge\n")
	fmt.Fprintf(w, "flumend_registry_prewarm_pending %d\n", reg.PrewarmPending)
	fmt.Fprintf(w, "# HELP flumend_registry_registrations_total Models registered over the registry's lifetime (reloads excluded).\n")
	fmt.Fprintf(w, "# TYPE flumend_registry_registrations_total counter\n")
	fmt.Fprintf(w, "flumend_registry_registrations_total %d\n", reg.Registrations)
	fmt.Fprintf(w, "# HELP flumend_registry_removals_total Models unregistered.\n")
	fmt.Fprintf(w, "# TYPE flumend_registry_removals_total counter\n")
	fmt.Fprintf(w, "flumend_registry_removals_total %d\n", reg.Removals)
	fmt.Fprintf(w, "# HELP flumend_registry_byref_requests_total Compute requests that named a registered model instead of shipping weights.\n")
	fmt.Fprintf(w, "# TYPE flumend_registry_byref_requests_total counter\n")
	for _, ep := range SortedKeys(m.byref) {
		fmt.Fprintf(w, "flumend_registry_byref_requests_total{endpoint=%q} %d\n", ep, m.byref[ep])
	}
	fmt.Fprintf(w, "# HELP flumend_registry_prewarm_hits_total By-reference requests whose model was already prewarmed (zero cold compiles on the request path).\n")
	fmt.Fprintf(w, "# TYPE flumend_registry_prewarm_hits_total counter\n")
	fmt.Fprintf(w, "flumend_registry_prewarm_hits_total %d\n", m.prewarmHits)

	fmt.Fprintf(w, "# HELP flumend_stage_seconds Per-stage time of traced requests; lease_wait and compute (opened into dac, propagate and detect) are engine sub-stages that overlap exec.\n")
	fmt.Fprintf(w, "# TYPE flumend_stage_seconds histogram\n")
	for s := trace.Stage(0); s < trace.NumStages; s++ {
		h := m.stages[s]
		if h.total == 0 {
			continue
		}
		WriteHistogram(w, "flumend_stage_seconds", fmt.Sprintf("stage=%q", s.String()), h)
	}

	fmt.Fprintf(w, "# HELP flumend_request_duration_seconds Admission-to-completion latency per endpoint.\n")
	fmt.Fprintf(w, "# TYPE flumend_request_duration_seconds histogram\n")
	for _, ep := range SortedKeys(m.hists) {
		WriteHistogram(w, "flumend_request_duration_seconds", fmt.Sprintf("endpoint=%q", ep), m.hists[ep])
	}
}

// The metrics kit below is shared with the router (internal/cluster).

// latencyBuckets are the histogram upper bounds in seconds.
var latencyBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Histogram is a latency histogram over latencyBuckets. It takes no lock:
// its owner's mutex guards it.
type Histogram struct {
	counts []int64 // one per bucket, plus +Inf at the end
	sum    float64
	total  int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]int64, len(latencyBuckets)+1)}
}

// Observe books one sample, in seconds.
func (h *Histogram) Observe(seconds float64) {
	i := sort.SearchFloat64s(latencyBuckets, seconds)
	h.counts[i]++
	h.sum += seconds
	h.total++
}

// WriteHistogram renders h as the Prometheus series name_bucket, name_sum
// and name_count. label, when not empty, is one rendered `key="value"` pair
// carried on every line.
func WriteHistogram(w io.Writer, name, label string, h *Histogram) {
	bucket, sel := "{", ""
	if label != "" {
		bucket, sel = "{"+label+",", "{"+label+"}"
	}
	cum := int64(0)
	for i, ub := range latencyBuckets {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket%sle=%q} %d\n", name, bucket, fmt.Sprintf("%g", ub), cum)
	}
	cum += h.counts[len(latencyBuckets)]
	fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", name, bucket, cum)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, sel, h.sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, sel, h.total)
}

// SortedKeys returns m's keys in order, so an exposition repeats.
func SortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

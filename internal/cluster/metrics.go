package cluster

import (
	"fmt"
	"io"
	"sync"
	"time"

	"flumen/internal/serve"
)

// Router metrics, exported in Prometheus text format at /metrics as
// flumen_router_* series. Per-backend health counters live on the backend
// structs (the pool is their source of truth); this registry owns the
// routing-level accounting: request/error/latency per endpoint, retry and
// spill counts, and the affinity hit ratio — the fraction of routed
// requests served by their rendezvous-first "home" node, which is the
// number that says whether cache-affinity routing is actually working.
type routerMetrics struct {
	start time.Time

	mu       sync.Mutex
	requests map[string]int64 // per endpoint, admitted at the router
	errors   map[string]int64 // per endpoint, answered with an error status
	hists    map[string]*serve.Histogram
	hop      *serve.Histogram // single backend attempt round-trip (send to answer)

	routed       int64 // requests that reached some backend successfully
	affinityHits int64 // of those, served by their home node
	retries      int64
	spills       int64
	noBackend    int64 // 503s because no routable backend existed
	modelRegs    int64 // model registrations fanned out through this router
	modelReplays int64 // registrations replayed into readmitted backends
}

func newRouterMetrics() *routerMetrics {
	return &routerMetrics{
		start:    time.Now(),
		requests: make(map[string]int64),
		errors:   make(map[string]int64),
		hists:    make(map[string]*serve.Histogram),
		hop:      serve.NewHistogram(),
	}
}

func (m *routerMetrics) observeRequest(endpoint string, d time.Duration, isErr bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[endpoint]++
	if isErr {
		m.errors[endpoint]++
	}
	h := m.hists[endpoint]
	if h == nil {
		h = serve.NewHistogram()
		m.hists[endpoint] = h
	}
	h.Observe(d.Seconds())
}

// observeHop records one backend attempt's round trip — request sent to
// answer (or transport failure) received. Retries and spills each count as
// their own hop, so hop count can exceed request count.
func (m *routerMetrics) observeHop(d time.Duration) {
	m.mu.Lock()
	m.hop.Observe(d.Seconds())
	m.mu.Unlock()
}

func (m *routerMetrics) observeRouted(affinityHit bool) {
	m.mu.Lock()
	m.routed++
	if affinityHit {
		m.affinityHits++
	}
	m.mu.Unlock()
}

func (m *routerMetrics) add(field *int64, n int64) {
	m.mu.Lock()
	*field += n
	m.mu.Unlock()
}

// write renders the exposition. backends and budget are sampled at scrape
// time from the pool and the retry bucket.
func (m *routerMetrics) write(w io.Writer, backends []BackendStats, budget float64) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP flumen_router_uptime_seconds Time since router start.\n")
	fmt.Fprintf(w, "# TYPE flumen_router_uptime_seconds gauge\n")
	fmt.Fprintf(w, "flumen_router_uptime_seconds %g\n", time.Since(m.start).Seconds())

	fmt.Fprintf(w, "# HELP flumen_router_requests_total Requests admitted per endpoint.\n")
	fmt.Fprintf(w, "# TYPE flumen_router_requests_total counter\n")
	for _, ep := range serve.SortedKeys(m.requests) {
		fmt.Fprintf(w, "flumen_router_requests_total{endpoint=%q} %d\n", ep, m.requests[ep])
	}
	fmt.Fprintf(w, "# HELP flumen_router_errors_total Requests answered with an error status per endpoint.\n")
	fmt.Fprintf(w, "# TYPE flumen_router_errors_total counter\n")
	for _, ep := range serve.SortedKeys(m.errors) {
		fmt.Fprintf(w, "flumen_router_errors_total{endpoint=%q} %d\n", ep, m.errors[ep])
	}

	fmt.Fprintf(w, "# HELP flumen_router_routed_total Requests served by some backend.\n")
	fmt.Fprintf(w, "# TYPE flumen_router_routed_total counter\n")
	fmt.Fprintf(w, "flumen_router_routed_total %d\n", m.routed)
	fmt.Fprintf(w, "# HELP flumen_router_affinity_hits_total Routed requests served by their rendezvous-first home node.\n")
	fmt.Fprintf(w, "# TYPE flumen_router_affinity_hits_total counter\n")
	fmt.Fprintf(w, "flumen_router_affinity_hits_total %d\n", m.affinityHits)
	ratio := 0.0
	if m.routed > 0 {
		ratio = float64(m.affinityHits) / float64(m.routed)
	}
	fmt.Fprintf(w, "# HELP flumen_router_affinity_ratio Fraction of routed requests that hit their home node's warm cache.\n")
	fmt.Fprintf(w, "# TYPE flumen_router_affinity_ratio gauge\n")
	fmt.Fprintf(w, "flumen_router_affinity_ratio %g\n", ratio)

	fmt.Fprintf(w, "# HELP flumen_router_retries_total Attempts re-sent to another backend after a failure (budget-bounded).\n")
	fmt.Fprintf(w, "# TYPE flumen_router_retries_total counter\n")
	fmt.Fprintf(w, "flumen_router_retries_total %d\n", m.retries)
	fmt.Fprintf(w, "# HELP flumen_router_spills_total 503 answers spilled to the next-preferred healthy backend.\n")
	fmt.Fprintf(w, "# TYPE flumen_router_spills_total counter\n")
	fmt.Fprintf(w, "flumen_router_spills_total %d\n", m.spills)
	fmt.Fprintf(w, "# HELP flumen_router_no_backend_total Requests shed because no routable backend existed.\n")
	fmt.Fprintf(w, "# TYPE flumen_router_no_backend_total counter\n")
	fmt.Fprintf(w, "flumen_router_no_backend_total %d\n", m.noBackend)
	fmt.Fprintf(w, "# HELP flumen_router_retry_budget Cluster-wide retry tokens currently available.\n")
	fmt.Fprintf(w, "# TYPE flumen_router_retry_budget gauge\n")
	fmt.Fprintf(w, "flumen_router_retry_budget %g\n", budget)

	fmt.Fprintf(w, "# HELP flumen_router_model_registrations_total Model registrations fanned out to the fleet.\n")
	fmt.Fprintf(w, "# TYPE flumen_router_model_registrations_total counter\n")
	fmt.Fprintf(w, "flumen_router_model_registrations_total %d\n", m.modelRegs)
	fmt.Fprintf(w, "# HELP flumen_router_model_replays_total Registrations replayed into backends readmitted after ejection.\n")
	fmt.Fprintf(w, "# TYPE flumen_router_model_replays_total counter\n")
	fmt.Fprintf(w, "flumen_router_model_replays_total %d\n", m.modelReplays)

	fmt.Fprintf(w, "# HELP flumen_router_backend_requests_total Live requests attempted per backend.\n")
	fmt.Fprintf(w, "# TYPE flumen_router_backend_requests_total counter\n")
	for _, b := range backends {
		fmt.Fprintf(w, "flumen_router_backend_requests_total{backend=%q} %d\n", b.Name, b.Requests)
	}
	fmt.Fprintf(w, "# HELP flumen_router_backend_errors_total Live request failures (transport or 5xx) per backend.\n")
	fmt.Fprintf(w, "# TYPE flumen_router_backend_errors_total counter\n")
	for _, b := range backends {
		fmt.Fprintf(w, "flumen_router_backend_errors_total{backend=%q} %d\n", b.Name, b.Errors)
	}
	fmt.Fprintf(w, "# HELP flumen_router_backend_spills_total 503 backpressure answers per backend.\n")
	fmt.Fprintf(w, "# TYPE flumen_router_backend_spills_total counter\n")
	for _, b := range backends {
		fmt.Fprintf(w, "flumen_router_backend_spills_total{backend=%q} %d\n", b.Name, b.Spills)
	}
	fmt.Fprintf(w, "# HELP flumen_router_backend_state Backend health state (0=active 1=probation 2=ejected).\n")
	fmt.Fprintf(w, "# TYPE flumen_router_backend_state gauge\n")
	for _, b := range backends {
		fmt.Fprintf(w, "flumen_router_backend_state{backend=%q,node=%q} %d\n", b.Name, b.Node, b.State)
	}
	fmt.Fprintf(w, "# HELP flumen_router_backend_degraded Whether the backend's last health probe reported degraded partitions.\n")
	fmt.Fprintf(w, "# TYPE flumen_router_backend_degraded gauge\n")
	for _, b := range backends {
		v := 0
		if b.Degraded {
			v = 1
		}
		fmt.Fprintf(w, "flumen_router_backend_degraded{backend=%q} %d\n", b.Name, v)
	}
	fmt.Fprintf(w, "# HELP flumen_router_probes_total Health probes issued per backend.\n")
	fmt.Fprintf(w, "# TYPE flumen_router_probes_total counter\n")
	for _, b := range backends {
		fmt.Fprintf(w, "flumen_router_probes_total{backend=%q} %d\n", b.Name, b.Probes)
	}
	fmt.Fprintf(w, "# HELP flumen_router_probe_failures_total Failed health probes per backend.\n")
	fmt.Fprintf(w, "# TYPE flumen_router_probe_failures_total counter\n")
	for _, b := range backends {
		fmt.Fprintf(w, "flumen_router_probe_failures_total{backend=%q} %d\n", b.Name, b.ProbeFailures)
	}
	fmt.Fprintf(w, "# HELP flumen_router_ejections_total Backends pulled from rotation after repeated failures.\n")
	fmt.Fprintf(w, "# TYPE flumen_router_ejections_total counter\n")
	for _, b := range backends {
		fmt.Fprintf(w, "flumen_router_ejections_total{backend=%q} %d\n", b.Name, b.Ejections)
	}
	fmt.Fprintf(w, "# HELP flumen_router_reinstatements_total Backends returned to active service after probation.\n")
	fmt.Fprintf(w, "# TYPE flumen_router_reinstatements_total counter\n")
	for _, b := range backends {
		fmt.Fprintf(w, "flumen_router_reinstatements_total{backend=%q} %d\n", b.Name, b.Reinstates)
	}

	fmt.Fprintf(w, "# HELP flumen_router_hop_seconds Single backend attempt round-trip latency.\n")
	fmt.Fprintf(w, "# TYPE flumen_router_hop_seconds histogram\n")
	serve.WriteHistogram(w, "flumen_router_hop_seconds", "", m.hop)

	fmt.Fprintf(w, "# HELP flumen_router_request_duration_seconds Admission-to-completion latency per endpoint.\n")
	fmt.Fprintf(w, "# TYPE flumen_router_request_duration_seconds histogram\n")
	for _, ep := range serve.SortedKeys(m.hists) {
		serve.WriteHistogram(w, "flumen_router_request_duration_seconds", fmt.Sprintf("endpoint=%q", ep), m.hists[ep])
	}
}

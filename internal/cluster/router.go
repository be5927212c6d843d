package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"flumen/internal/registry"
	"flumen/internal/serve"
	"flumen/internal/trace"
	"flumen/internal/wfp"
)

// Router is the cluster front door: it terminates client HTTP, computes the
// routing key (the weight fingerprint), and proxies to the
// preference-ordered backends with spill-on-503 and budget-bounded
// retries. The router holds no compute state of its own —
// backends stay bitwise-deterministic, so any healthy node can serve any
// request; affinity only decides who serves it fastest.
type Router struct {
	cfg    Config
	pool   *pool
	met    *routerMetrics
	budget *retryBudget
	client *http.Client
	ring   *trace.Ring

	mux     *http.ServeMux
	httpSrv *http.Server
	lis     net.Listener

	// modelsMu guards modelDir: the router's directory of models registered
	// through it (models.go). Each entry carries the registered routing key,
	// so by-reference requests route without any weight bytes to hash, and
	// the original payload, replayed into backends returning from ejection.
	modelsMu sync.Mutex
	modelDir map[string]*modelEntry

	drainMu  sync.Mutex
	draining bool
}

// New builds a router over the configured backends and starts health
// probing immediately.
func New(cfg Config) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p, err := newPool(&cfg)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:      cfg,
		pool:     p,
		met:      newRouterMetrics(),
		budget:   newRetryBudget(cfg.RetryBudget, cfg.RetryBurst),
		client:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}},
		mux:      http.NewServeMux(),
		modelDir: make(map[string]*modelEntry),
		ring:     trace.NewRing(cfg.TraceRing),
	}
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /debug/requests", rt.handleDebugRequests)
	rt.mux.HandleFunc("POST /v1/matmul", rt.handleProxy("matmul", "/v1/matmul", rt.matmulKey))
	rt.mux.HandleFunc("POST /v1/conv2d", rt.handleProxy("conv2d", "/v1/conv2d", rt.conv2dKey))
	rt.mux.HandleFunc("POST /v1/infer", rt.handleProxy("infer", "/v1/infer", rt.inferKey))
	rt.mux.HandleFunc("POST /v1/models", rt.handleModelRegister)
	rt.mux.HandleFunc("GET /v1/models", rt.handleModelList)
	rt.mux.HandleFunc("DELETE /v1/models/{ref}", rt.handleModelDelete)
	// A backend returning from ejection may be a fresh process with an empty
	// (memory-only) registry: replay every model registered through this
	// router before it takes by-reference traffic again.
	p.onReadmit = rt.replayModels
	rt.httpSrv = &http.Server{Handler: rt.mux}
	p.start()
	return rt, nil
}

// Addr returns the bound listen address once Listen has run.
func (rt *Router) Addr() string {
	if rt.lis == nil {
		return rt.cfg.Addr
	}
	return rt.lis.Addr().String()
}

// Listen binds the configured address without serving yet.
func (rt *Router) Listen() error {
	lis, err := net.Listen("tcp", rt.cfg.Addr)
	if err != nil {
		return err
	}
	rt.lis = lis
	return nil
}

// Run serves until ctx is cancelled, then drains gracefully: the listener
// stops accepting and in-flight proxied requests get DrainTimeout to
// finish. Probing stops last so /healthz state stays live during drain.
func (rt *Router) Run(ctx context.Context) error {
	if rt.lis == nil {
		if err := rt.Listen(); err != nil {
			return err
		}
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- rt.httpSrv.Serve(rt.lis) }()

	select {
	case err := <-serveErr:
		rt.pool.shutdown()
		return err
	case <-ctx.Done():
	}

	rt.drainMu.Lock()
	rt.draining = true
	rt.drainMu.Unlock()
	drainCtx, cancel := context.WithTimeout(context.Background(), rt.cfg.DrainTimeout)
	defer cancel()
	err := rt.httpSrv.Shutdown(drainCtx)
	rt.pool.shutdown()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("cluster: drain incomplete: %w", err)
	}
	return nil
}

// Shutdown stops health probing; used by tests that drive Handler directly
// and never call Run.
func (rt *Router) Shutdown() { rt.pool.shutdown() }

// Stats is a point-in-time routing snapshot.
type Stats struct {
	Backends     []BackendStats
	Routed       int64
	AffinityHits int64
	Retries      int64
	Spills       int64
	NoBackend    int64
	RetryBudget  float64
	Models       int   // models in the router's directory
	ModelReplays int64 // registrations replayed into readmitted backends
}

// Stats snapshots the pool and routing counters.
func (rt *Router) Stats() Stats {
	st := Stats{RetryBudget: rt.budget.available()}
	for _, b := range rt.pool.backends {
		st.Backends = append(st.Backends, b.snapshot())
	}
	rt.modelsMu.Lock()
	st.Models = len(rt.modelDir)
	rt.modelsMu.Unlock()
	rt.met.mu.Lock()
	st.Routed = rt.met.routed
	st.AffinityHits = rt.met.affinityHits
	st.Retries = rt.met.retries
	st.Spills = rt.met.spills
	st.NoBackend = rt.met.noBackend
	st.ModelReplays = rt.met.modelReplays
	rt.met.mu.Unlock()
	return st
}

// --- routing keys -----------------------------------------------------------

// matmulKey fingerprints the weight matrix — the exact key the backend's
// program cache and coalescer use, so routing affinity and cache affinity
// are the same relation. By-reference requests carry no weight bytes; the
// model directory supplies the fingerprint that was computed once at
// registration, so by-name and inline traffic for the same weights land on
// the same node.
func (rt *Router) matmulKey(body []byte) (string, error) {
	var req serve.MatMulRequest
	if err := serve.DecodeMatMul(body, &req, serve.RoutingFields); err != nil {
		return "", err
	}
	if req.Model != "" {
		return rt.modelKey(req.Model), nil
	}
	return wfp.Matrix(req.M), nil
}

// conv2dKey fingerprints the kernel stack (the conv weights), flattened one
// kernel per row: the backend im2cols the kernels into exactly such a
// matrix before programming the mesh.
func (rt *Router) conv2dKey(body []byte) (string, error) {
	var req serve.Conv2DRequest
	if err := serve.DecodeConv2D(body, &req, serve.RoutingFields); err != nil {
		return "", err
	}
	if req.Model != "" {
		return rt.modelKey(req.Model), nil
	}
	return wfp.Matrix(registry.RavelKernels(req.Kernels)), nil
}

// inferKey routes by model name: built-in models have identical seed-derived
// weights on every backend, and registered ones ("name@version") are fanned
// out to every backend, so either way a name's block fingerprints — and
// therefore its cached programs — are the same on whichever node repeatedly
// serves it.
func (rt *Router) inferKey(body []byte) (string, error) {
	var req serve.InferRequest
	if err := serve.DecodeInfer(body, &req, serve.RoutingFields); err != nil {
		return "", err
	}
	if e := rt.lookupModel(req.Model); e != nil {
		return e.key, nil
	}
	return "model:" + req.Model, nil
}

// --- request path -----------------------------------------------------------

// handleProxy builds the handler for one proxied endpoint: bound the body,
// derive the routing key, and forward.
func (rt *Router) handleProxy(endpoint, path string, keyFn func([]byte) (string, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get(serve.HeaderRequestID)
		if reqID == "" {
			reqID = serve.NewRequestID()
		}
		w.Header().Set(serve.HeaderRequestID, reqID)
		tr := rt.traceFor(r, reqID)

		body, ok := rt.readBody(w, r, endpoint, start, tr)
		if !ok {
			return
		}
		key, err := keyFn(body)
		if err != nil {
			// Unroutable means unparseable: the key comes from the backend's
			// own decoder, so this is the 400 the backend would answer, given
			// here rather than after a round trip.
			rt.answerError(w, endpoint, start, tr, http.StatusBadRequest, "malformed JSON: "+err.Error())
			return
		}
		tr.Add(trace.StageDecode, time.Since(start))
		rt.budget.onRequest()
		rt.forward(w, r, endpoint, path, key, body, reqID, start, tr)
	}
}

// readBody reads a request body sized by its Content-Length and bounded by
// MaxBodyBytes, refusing with the backend's own 413 or 400 itself.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request, endpoint string, start time.Time, tr *trace.Trace) ([]byte, bool) {
	var buf bytes.Buffer
	err := serve.ReadBody(w, r, rt.cfg.MaxBodyBytes, &buf)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		rt.answerError(w, endpoint, start, tr, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", rt.cfg.MaxBodyBytes))
	case err != nil:
		rt.answerError(w, endpoint, start, tr, http.StatusBadRequest, "reading request body: "+err.Error())
	}
	return buf.Bytes(), err == nil
}

// forward walks the preference order: definitive answers (2xx/4xx) relay
// immediately, 503s spill to the next candidate for free, transport errors
// and 5xxs retry while the per-request cap and the cluster retry budget
// allow. When every candidate is saturated the most recent 503 — with its
// Retry-After — propagates to the client.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, endpoint, path, key string, body []byte, reqID string, start time.Time, tr *trace.Trace) {
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	// The trace header is forwarded only on client opt-in: router-wide
	// tracing observes at the router without changing what backends do or
	// what bodies clients get back.
	traced := r.Header.Get(serve.HeaderTrace) == "1"

	selStart := time.Now()
	order, home := rt.pool.candidates(key)
	tr.Add(trace.StageRouterSelect, time.Since(selStart))
	if len(order) == 0 {
		rt.met.add(&rt.met.noBackend, 1)
		w.Header().Set("Retry-After", serve.RetryAfterSecs(rt.cfg.RetryAfter))
		rt.answerError(w, endpoint, start, tr, http.StatusServiceUnavailable, "no healthy backend available, retry later")
		return
	}

	var last503 *attemptResult
	retries := 0
	for idx := 0; idx < len(order); idx++ {
		hopStart := time.Now()
		res := rt.send(ctx, order[idx], path, body, reqID, traced)
		hop := time.Since(hopStart)
		rt.met.observeHop(hop)
		tr.Add(trace.StageRouterHop, hop)
		switch {
		case res.err != nil:
			if ctx.Err() != nil {
				rt.answerError(w, endpoint, start, tr, http.StatusGatewayTimeout, "deadline exceeded")
				return
			}
			if retries < rt.cfg.MaxRetries && idx+1 < len(order) && rt.budget.take() {
				retries++
				rt.met.add(&rt.met.retries, 1)
				tr.AddRetry()
				continue
			}
			rt.answerError(w, endpoint, start, tr, http.StatusBadGateway, "backend unreachable: "+res.err.Error())
			return
		case res.status == http.StatusServiceUnavailable:
			// Backpressure, not failure: spill to the next-preferred healthy
			// node without consuming retry budget.
			rt.met.add(&rt.met.spills, 1)
			tr.AddSpill()
			last503 = &res
			continue
		case res.status >= 500:
			if res.cancelled() {
				// The backend reports the client's own request was cancelled
				// mid-flight. Re-sending the work elsewhere cannot help the
				// client who gave up; relay the answer as definitive.
				rt.relay(w, endpoint, start, &res, home, tr)
				return
			}
			if retries < rt.cfg.MaxRetries && idx+1 < len(order) && rt.budget.take() {
				retries++
				rt.met.add(&rt.met.retries, 1)
				tr.AddRetry()
				continue
			}
			rt.relay(w, endpoint, start, &res, home, tr)
			return
		default:
			rt.relay(w, endpoint, start, &res, home, tr)
			return
		}
	}
	if last503 != nil {
		rt.relay(w, endpoint, start, last503, home, tr)
		return
	}
	w.Header().Set("Retry-After", serve.RetryAfterSecs(rt.cfg.RetryAfter))
	rt.answerError(w, endpoint, start, tr, http.StatusServiceUnavailable, "all backends unavailable, retry later")
}

// attemptResult is one backend's answer (or transport failure).
type attemptResult struct {
	b      *backend
	status int
	header http.Header
	body   []byte
	err    error
}

// cancelled reports whether the attempt is a backend's 504 for a request
// the client itself abandoned — the one 5xx that indicts the client, not
// the backend, so it must neither count against backend health nor spend
// retry budget re-running work nobody is waiting for.
func (a *attemptResult) cancelled() bool {
	return a.err == nil && a.status == http.StatusGatewayTimeout && errCode(a.body) == serve.CodeCancelled
}

// errCode extracts the stable machine-readable code from a backend error
// body ("" when absent or unparseable).
func errCode(body []byte) string {
	var e struct {
		Code string `json:"code"`
	}
	if json.Unmarshal(body, &e) != nil {
		return ""
	}
	return e.Code
}

// send performs one proxied attempt and feeds the passive health signals:
// transport errors and 5xx count against the backend, 503 counts as alive
// (the node answered; it is saturated, not sick), 2xx/4xx count as healthy.
func (rt *Router) send(ctx context.Context, b *backend, path string, body []byte, reqID string, traced bool) attemptResult {
	return rt.sendMethod(ctx, b, http.MethodPost, path, body, reqID, traced)
}

func (rt *Router) sendMethod(ctx context.Context, b *backend, method, path string, body []byte, reqID string, traced bool) attemptResult {
	actx, cancel := context.WithTimeout(ctx, rt.cfg.AttemptTimeout)
	defer cancel()
	b.mu.Lock()
	b.requests++
	b.mu.Unlock()

	req, err := http.NewRequestWithContext(actx, method, b.name+path, bytes.NewReader(body))
	if err != nil {
		return attemptResult{b: b, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.HeaderRequestID, reqID)
	if traced {
		req.Header.Set(serve.HeaderTrace, "1")
	}

	resp, err := rt.client.Do(req)
	now := time.Now()
	if err != nil {
		if errors.Is(err, context.Canceled) {
			// A client disconnect cancelled this attempt; the backend did
			// nothing wrong, so its health ledger is untouched.
			return attemptResult{b: b, err: err}
		}
		b.mu.Lock()
		b.errors++
		b.mu.Unlock()
		b.observeFailure(rt.pool.cfg, now)
		return attemptResult{b: b, err: err}
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return attemptResult{b: b, err: err}
		}
		b.mu.Lock()
		b.errors++
		b.mu.Unlock()
		b.observeFailure(rt.pool.cfg, now)
		return attemptResult{b: b, err: err}
	}
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		b.mu.Lock()
		b.spills++
		b.mu.Unlock()
		if b.observeSuccess(rt.pool.cfg, now) {
			rt.pool.readmitted(b)
		}
	case resp.StatusCode == http.StatusGatewayTimeout && errCode(rb) == serve.CodeCancelled:
		// The client abandoned its own request; the backend answered
		// promptly and correctly. Scoring this against the node's health
		// would let one impatient client eject a perfectly healthy backend.
		if b.observeSuccess(rt.pool.cfg, now) {
			rt.pool.readmitted(b)
		}
	case resp.StatusCode >= 500:
		b.mu.Lock()
		b.errors++
		b.mu.Unlock()
		b.observeFailure(rt.pool.cfg, now)
	default:
		if n := resp.Header.Get(serve.HeaderNode); n != "" {
			b.mu.Lock()
			b.node = n
			b.mu.Unlock()
		}
		if b.observeSuccess(rt.pool.cfg, now) {
			rt.pool.readmitted(b)
		}
	}
	return attemptResult{b: b, status: resp.StatusCode, header: resp.Header, body: rb}
}

// relay writes a backend's answer through to the client, preserving the
// serving node's identity and any backpressure hint.
func (rt *Router) relay(w http.ResponseWriter, endpoint string, start time.Time, res *attemptResult, home *backend, tr *trace.Trace) {
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if n := res.header.Get(serve.HeaderNode); n != "" {
		w.Header().Set(serve.HeaderNode, n)
	}
	if res.status == http.StatusServiceUnavailable {
		ra := res.header.Get("Retry-After")
		if ra == "" {
			ra = serve.RetryAfterSecs(rt.cfg.RetryAfter)
		}
		w.Header().Set("Retry-After", ra)
	}
	wstart := time.Now()
	w.WriteHeader(res.status)
	if _, err := w.Write(res.body); err != nil {
		log.Printf("cluster: relaying response: %v", err)
	}
	tr.Add(trace.StageWrite, time.Since(wstart))
	if res.status < 500 && res.status != http.StatusServiceUnavailable {
		rt.met.observeRouted(res.b == home)
	}
	rt.met.observeRequest(endpoint, time.Since(start), res.status >= 400)
	rt.finishTrace(tr, endpoint, res.status)
}

// answerError answers an error of the router's own making. Where it stands
// in for a backend's verdict on the body (400, 413) it carries the backend's
// stable code; its own conditions (502, 503, 504) carry none.
func (rt *Router) answerError(w http.ResponseWriter, endpoint string, start time.Time, tr *trace.Trace, status int, msg string) {
	body := map[string]string{"error": msg}
	switch status {
	case http.StatusBadRequest:
		body["code"] = serve.CodeBadRequest
	case http.StatusRequestEntityTooLarge:
		body["code"] = serve.CodeBodyTooLarge
	}
	wstart := time.Now()
	serve.WriteJSON(w, status, body)
	tr.Add(trace.StageWrite, time.Since(wstart))
	rt.met.observeRequest(endpoint, time.Since(start), true)
	rt.finishTrace(tr, endpoint, status)
}

// --- observability ----------------------------------------------------------

// RouterHealth is the router's /healthz body.
type RouterHealth struct {
	Status        string          `json:"status"` // ok | degraded | down
	UptimeSeconds float64         `json:"uptime_seconds"`
	Draining      bool            `json:"draining"`
	Backends      []BackendHealth `json:"backends"`
}

// BackendHealth is one backend's health line in the router's /healthz.
type BackendHealth struct {
	Name                string `json:"name"`
	Node                string `json:"node,omitempty"`
	State               string `json:"state"`
	Degraded            bool   `json:"degraded,omitempty"`
	ConsecutiveFailures int    `json:"consecutive_failures,omitempty"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.drainMu.Lock()
	draining := rt.draining
	rt.drainMu.Unlock()
	resp := RouterHealth{
		Status:        "ok",
		UptimeSeconds: time.Since(rt.met.start).Seconds(),
		Draining:      draining,
	}
	routable := 0
	for _, b := range rt.pool.backends {
		s := b.snapshot()
		resp.Backends = append(resp.Backends, BackendHealth{
			Name:                s.Name,
			Node:                s.Node,
			State:               s.State.String(),
			Degraded:            s.Degraded,
			ConsecutiveFailures: s.ConsecFails,
		})
		if s.State != StateEjected {
			routable++
		}
		if s.State != StateActive || s.Degraded {
			resp.Status = "degraded"
		}
	}
	if routable == 0 {
		resp.Status = "down"
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var backends []BackendStats
	for _, b := range rt.pool.backends {
		backends = append(backends, b.snapshot())
	}
	rt.met.write(w, backends, rt.budget.available())
}

// --- retry budget -----------------------------------------------------------

// retryBudget is the cluster-wide token bucket that bounds retry
// amplification: live traffic refills it (RetryBudget tokens per admitted
// request, capped at RetryBurst) and every retry spends one token, so
// during a brown-out the fleet retries at a bounded fraction of offered
// load instead of multiplying it.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	max    float64
	ratio  float64
}

func newRetryBudget(ratio, burst float64) *retryBudget {
	return &retryBudget{tokens: burst, max: burst, ratio: ratio}
}

func (b *retryBudget) onRequest() {
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > b.max {
		b.tokens = b.max
	}
	b.mu.Unlock()
}

func (b *retryBudget) take() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

func (b *retryBudget) available() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}

package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"flumen/internal/loadgen"
	"flumen/internal/registry"
	"flumen/internal/serve"
	"flumen/internal/wfp"
)

// fakeBackend is a scripted flumend stand-in for router-logic tests: it
// answers /healthz like a healthy node and runs the scripted handler for
// everything else.
func fakeBackend(t *testing.T, node string, handler http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(serve.HeaderNode, node)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/", handler)
	s := httptest.NewServer(mux)
	t.Cleanup(s.Close)
	return s
}

func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	return rt
}

const matmulBody = `{"m": [[1,0],[0,1]], "x": [[1],[2]]}`

// postRouter drives the router's handler directly (no listener needed).
func postRouter(rt *Router, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	return w
}

// orderFor reports the router's current preference order for the body's
// routing key — tests use it to know which fake backend is tried first.
func orderFor(t *testing.T, rt *Router, body string) []*backend {
	t.Helper()
	key, err := rt.matmulKey([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	order, _ := rt.pool.candidates(key)
	return order
}

func TestRouterSpillsOn503(t *testing.T) {
	sat := fakeBackend(t, "saturated", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"error":"queue full"}`)
	})
	ok := fakeBackend(t, "calm", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(serve.HeaderNode, "calm")
		io.WriteString(w, `{"c":[[1],[2]]}`)
	})

	cfg := DefaultConfig()
	cfg.Backends = []string{sat.URL, ok.URL}
	cfg.MaxRetries = 0 // spills must work even with retries disabled
	rt := newTestRouter(t, cfg)

	w := postRouter(rt, "/v1/matmul", matmulBody, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 after spilling past the saturated node: %s", w.Code, w.Body)
	}
	if got := w.Header().Get(serve.HeaderNode); got != "calm" {
		t.Fatalf("served by %q, want the calm node", got)
	}
	st := rt.Stats()
	if order := orderFor(t, rt, matmulBody); order[0].name == sat.URL && st.Spills != 1 {
		t.Fatalf("spills = %d, want 1 (saturated node is preferred for this key)", st.Spills)
	}
	// A spill is backpressure, not a failure: the budget must be untouched.
	if st.RetryBudget != cfg.RetryBurst {
		t.Fatalf("retry budget %v consumed by a spill, want %v", st.RetryBudget, cfg.RetryBurst)
	}
}

func TestRouterPropagates503WhenAllSaturated(t *testing.T) {
	mk := func(ra string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if ra != "" {
				w.Header().Set("Retry-After", ra)
			}
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"error":"queue full"}`)
		}
	}
	a := fakeBackend(t, "a", mk("5"))
	b := fakeBackend(t, "b", mk("9"))

	cfg := DefaultConfig()
	cfg.Backends = []string{a.URL, b.URL}
	rt := newTestRouter(t, cfg)

	w := postRouter(rt, "/v1/matmul", matmulBody, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 when every candidate is saturated", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra != "5" && ra != "9" {
		t.Fatalf("Retry-After %q, want the backend's own hint", ra)
	}
	if st := rt.Stats(); st.Spills != 2 {
		t.Fatalf("spills = %d, want 2", st.Spills)
	}
}

func TestRouterRetriesOn5xx(t *testing.T) {
	var sickHits atomic.Int64
	sick := fakeBackend(t, "sick", func(w http.ResponseWriter, r *http.Request) {
		sickHits.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	})
	ok := fakeBackend(t, "well", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(serve.HeaderNode, "well")
		io.WriteString(w, `{"c":[[1],[2]]}`)
	})

	cfg := DefaultConfig()
	cfg.Backends = []string{sick.URL, ok.URL}
	rt := newTestRouter(t, cfg)

	w := postRouter(rt, "/v1/matmul", matmulBody, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 after retrying past the 500ing node: %s", w.Code, w.Body)
	}
	st := rt.Stats()
	if order := orderFor(t, rt, matmulBody); order[0].name == sick.URL {
		if st.Retries != 1 {
			t.Fatalf("retries = %d, want 1", st.Retries)
		}
		if st.RetryBudget >= cfg.RetryBurst {
			t.Fatalf("retry budget %v not charged for a retry", st.RetryBudget)
		}
	}
}

func TestRouterRetryBudgetExhaustionRelays5xx(t *testing.T) {
	sick := fakeBackend(t, "sick", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		io.WriteString(w, `{"error":"boom"}`)
	})
	ok := fakeBackend(t, "well", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"c":[[1],[2]]}`)
	})

	cfg := DefaultConfig()
	cfg.Backends = []string{sick.URL, ok.URL}
	cfg.RetryBudget = 0.001 // effectively no refill
	cfg.RetryBurst = 0.5    // and an empty bucket: every retry is denied
	rt := newTestRouter(t, cfg)

	// Only keys homed on the sick node exercise the budget denial; find one.
	for k := 0; ; k++ {
		body := fmt.Sprintf(`{"m": [[%d,0],[0,1]], "x": [[1],[2]]}`, k)
		if orderFor(t, rt, body)[0].name != sick.URL {
			continue
		}
		w := postRouter(rt, "/v1/matmul", body, nil)
		if w.Code != http.StatusInternalServerError {
			t.Fatalf("status %d, want the backend's 500 relayed when the retry budget is empty", w.Code)
		}
		if st := rt.Stats(); st.Retries != 0 {
			t.Fatalf("retries = %d, want 0 with an empty budget", st.Retries)
		}
		return
	}
}

func TestRouterNoBackendAnswers503(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Backends = []string{"http://127.0.0.1:1"} // nothing listens on port 1
	rt := newTestRouter(t, cfg)
	for _, b := range rt.pool.backends {
		b.mu.Lock()
		b.state = StateEjected
		b.mu.Unlock()
	}

	w := postRouter(rt, "/v1/matmul", matmulBody, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 with every backend ejected", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("router 503 must carry Retry-After")
	}
	var er struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Fatalf("router 503 must be structured JSON, got %q", w.Body)
	}
	if st := rt.Stats(); st.NoBackend != 1 {
		t.Fatalf("noBackend = %d, want 1", st.NoBackend)
	}
}

func TestRouterRejectsMalformedWithoutBackendTrip(t *testing.T) {
	var hits atomic.Int64
	b := fakeBackend(t, "b", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.WriteString(w, `{}`)
	})
	cfg := DefaultConfig()
	cfg.Backends = []string{b.URL}
	cfg.MaxBodyBytes = 1 << 10
	rt := newTestRouter(t, cfg)

	cases := []struct {
		name   string
		path   string
		body   string
		status int
		code   string
	}{
		{"malformed", "/v1/matmul", `{"m": [[1,`, http.StatusBadRequest, serve.CodeBadRequest},
		{"wrong type", "/v1/matmul", `{"m": 42}`, http.StatusBadRequest, serve.CodeBadRequest},
		{"ragged m", "/v1/matmul", `{"m": [[1,2],[3]], "x": [[1],[2]]}`, http.StatusBadRequest, serve.CodeBadRequest},
		{"ragged kernels", "/v1/conv2d", `{"input": [[[1]]], "kernels": [[[[1,2],[3]]]]}`, http.StatusBadRequest, serve.CodeBadRequest},
		{"null row in m", "/v1/matmul", `{"m": [[1],null], "x": [[1]]}`, http.StatusBadRequest, serve.CodeBadRequest},
		{"null kernel", "/v1/conv2d", `{"input": [[[1]]], "kernels": [[[[1]]],null]}`, http.StatusBadRequest, serve.CodeBadRequest},
		{"trailing data", "/v1/infer", `{"model": "tiny-cnn"} {}`, http.StatusBadRequest, serve.CodeBadRequest},
		{"oversized", "/v1/matmul", `{"m": [[` + strings.Repeat("1,", 2000) + `1]]}`, http.StatusRequestEntityTooLarge, serve.CodeBodyTooLarge},
	}
	// What a backend answers to the same bodies: the router must say the same.
	scfg := serve.DefaultConfig()
	scfg.MaxBodyBytes = cfg.MaxBodyBytes
	backend, err := serve.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	for _, tc := range cases {
		w := postRouter(rt, tc.path, tc.body, nil)
		var er struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body not structured JSON: %q", tc.name, w.Body)
		}
		if w.Code != tc.status || er.Code != tc.code {
			t.Errorf("%s: router answers %d %q, want %d %q", tc.name, w.Code, er.Code, tc.status, tc.code)
		}
		bw := httptest.NewRecorder()
		backend.Handler().ServeHTTP(bw, httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body)))
		var ber struct {
			Code string `json:"code"`
		}
		if err := json.Unmarshal(bw.Body.Bytes(), &ber); err != nil {
			t.Fatalf("%s: backend error body: %v", tc.name, err)
		}
		if bw.Code != w.Code || ber.Code != er.Code {
			t.Errorf("%s: backend answers %d %q, router %d %q", tc.name, bw.Code, ber.Code, w.Code, er.Code)
		}
	}
	if hits.Load() != 0 {
		t.Fatalf("unroutable requests reached a backend %d times", hits.Load())
	}
}

func TestRouterRequestIDFlow(t *testing.T) {
	var seen atomic.Value
	b := fakeBackend(t, "b", func(w http.ResponseWriter, r *http.Request) {
		seen.Store(r.Header.Get(serve.HeaderRequestID))
		w.Header().Set(serve.HeaderNode, "the-node")
		io.WriteString(w, `{}`)
	})
	cfg := DefaultConfig()
	cfg.Backends = []string{b.URL}
	rt := newTestRouter(t, cfg)

	// Caller-supplied ID flows to the backend and back to the caller.
	w := postRouter(rt, "/v1/matmul", matmulBody, map[string]string{serve.HeaderRequestID: "trace-me"})
	if got := w.Header().Get(serve.HeaderRequestID); got != "trace-me" {
		t.Fatalf("response %s = %q, want trace-me", serve.HeaderRequestID, got)
	}
	if got, _ := seen.Load().(string); got != "trace-me" {
		t.Fatalf("backend saw %s = %q, want trace-me", serve.HeaderRequestID, got)
	}
	if got := w.Header().Get(serve.HeaderNode); got != "the-node" {
		t.Fatalf("response %s = %q, want the-node", serve.HeaderNode, got)
	}

	// Without one, the router mints an ID before forwarding.
	w = postRouter(rt, "/v1/matmul", matmulBody, nil)
	minted := w.Header().Get(serve.HeaderRequestID)
	if minted == "" {
		t.Fatal("router did not mint a request ID")
	}
	if got, _ := seen.Load().(string); got != minted {
		t.Fatalf("backend saw %q, response carried %q", got, minted)
	}
}

func TestRouterHealthzDegradesAndDowns(t *testing.T) {
	a := fakeBackend(t, "a", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, `{}`) })
	cfg := DefaultConfig()
	cfg.Backends = []string{a.URL}
	rt := newTestRouter(t, cfg)

	get := func() RouterHealth {
		req := httptest.NewRequest("GET", "/healthz", nil)
		w := httptest.NewRecorder()
		rt.Handler().ServeHTTP(w, req)
		var rh RouterHealth
		if err := json.Unmarshal(w.Body.Bytes(), &rh); err != nil {
			t.Fatal(err)
		}
		return rh
	}

	if rh := get(); rh.Status != "ok" || len(rh.Backends) != 1 {
		t.Fatalf("fresh router health = %+v, want ok with 1 backend", rh)
	}
	rt.pool.backends[0].mu.Lock()
	rt.pool.backends[0].degraded = true
	rt.pool.backends[0].mu.Unlock()
	if rh := get(); rh.Status != "degraded" {
		t.Fatalf("status %q with a degraded backend, want degraded", rh.Status)
	}
	rt.pool.backends[0].mu.Lock()
	rt.pool.backends[0].state = StateEjected
	rt.pool.backends[0].mu.Unlock()
	if rh := get(); rh.Status != "down" {
		t.Fatalf("status %q with every backend ejected, want down", rh.Status)
	}
}

func TestRouterMetricsExposition(t *testing.T) {
	a := fakeBackend(t, "a", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, `{}`) })
	cfg := DefaultConfig()
	cfg.Backends = []string{a.URL}
	rt := newTestRouter(t, cfg)

	postRouter(rt, "/v1/matmul", matmulBody, nil)
	req := httptest.NewRequest("GET", "/metrics", nil)
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	body := w.Body.String()
	for _, metric := range []string{
		"flumen_router_requests_total",
		"flumen_router_routed_total 1",
		"flumen_router_affinity_ratio",
		"flumen_router_backend_state",
		"flumen_router_retry_budget",
		"flumen_router_request_duration_seconds_bucket",
	} {
		if !strings.Contains(body, metric) {
			t.Errorf("/metrics missing %q", metric)
		}
	}
}

// TestRouterKeyMatchesBackendKey: the router derives a request's routing key
// with the backend's own decoder, so the node it picks is the node whose
// program cache and coalescer key the request the same way. For every
// request of the standing mixed stream the two keys are compared: inline
// weights against the fingerprint of a full decode, by-name requests against
// the RoutingKey of the model the backend's registry resolves.
func TestRouterKeyMatchesBackendKey(t *testing.T) {
	scfg := serve.DefaultConfig()
	scfg.Addr = "127.0.0.1:0"
	h, err := StartBackends(1, scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	cfg := DefaultConfig()
	cfg.Backends = h.URLs()
	rt := newTestRouter(t, cfg)
	ref, err := serve.NewReference(scfg)
	if err != nil {
		t.Fatal(err)
	}

	for seed := int64(1); seed <= 3; seed++ {
		lcfg := loadgen.DefaultConfig()
		lcfg.Seed = seed
		st, err := loadgen.NewStream(lcfg, ref.InferShapes())
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range st.ModelSpecs() {
			// Each seed draws its own catalog under the same names.
			spec.Version = fmt.Sprintf("v%d", seed)
			body, _ := json.Marshal(spec)
			if w := postRouter(rt, "/v1/models", string(body), nil); w.Code != http.StatusCreated {
				t.Fatalf("registering %s: %d %s", spec.Ref(), w.Code, w.Body)
			}
		}
		byName := 0
		for i := range st.Requests {
			r := &st.Requests[i]
			body := r.Body
			if r.ByName {
				body = bytes.Replace(body, []byte(`@v1"`), []byte(fmt.Sprintf(`@v%d"`, seed)), 1)
				byName++
			}
			var got, want string
			switch r.Op {
			case loadgen.OpMatMul:
				var req serve.MatMulRequest
				if err := serve.DecodeMatMul(body, &req, serve.AllFields); err != nil {
					t.Fatal(err)
				}
				want = wfp.Matrix(req.M)
				if req.Model != "" {
					mdl, err := h.Backend(0).Registry().Resolve(req.Model)
					if err != nil {
						t.Fatal(err)
					}
					want = mdl.Spec.RoutingKey()
					if inline := wfp.Matrix(st.Matrices[r.WeightIdx]); want != inline {
						t.Fatalf("seed %d request %d: by-name key differs from the inline key of the same weights", seed, i)
					}
				}
				got, err = rt.matmulKey(body)
			case loadgen.OpConv2D:
				var req serve.Conv2DRequest
				if err := serve.DecodeConv2D(body, &req, serve.AllFields); err != nil {
					t.Fatal(err)
				}
				want = wfp.Matrix(registry.RavelKernels(req.Kernels))
				got, err = rt.conv2dKey(body)
			case loadgen.OpInfer:
				var req serve.InferRequest
				if err := serve.DecodeInfer(body, &req, serve.AllFields); err != nil {
					t.Fatal(err)
				}
				want = "model:" + req.Model
				got, err = rt.inferKey(body)
			}
			if err != nil {
				t.Fatalf("seed %d request %d (%s): router refuses a body the backend takes: %v", seed, i, r.Op, err)
			}
			if got != want {
				t.Fatalf("seed %d request %d (%s): router key and backend key differ", seed, i, r.Op)
			}
		}
		if byName == 0 {
			t.Fatalf("seed %d: the stream has no by-name request to compare", seed)
		}
	}
}

// Handler exposes the route table (tests drive it directly).
func (rt *Router) Handler() http.Handler { return rt.mux }

package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"flumen/internal/serve"
)

// Regression: a backend's 504 for a request the client itself cancelled
// used to count as a backend failure — one impatient client per
// FailThreshold window could eject a healthy node. The cancelled code must
// relay definitively (no retry) and leave the health ledger untouched.
func TestRouterDoesNotScoreClientCancelled504(t *testing.T) {
	var hits int32
	cancelled := fakeBackend(t, "n0", func(w http.ResponseWriter, r *http.Request) {
		hits++
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusGatewayTimeout)
		io.WriteString(w, `{"error":"request cancelled","code":"cancelled"}`)
	})

	cfg := DefaultConfig()
	cfg.Backends = []string{cancelled.URL}
	cfg.FailThreshold = 1 // a single scored failure would eject the node
	rt := newTestRouter(t, cfg)

	w := postRouter(rt, "/v1/matmul", matmulBody, nil)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want the backend's 504 relayed", w.Code)
	}
	if hits != 1 {
		t.Fatalf("backend hit %d times, want 1: a cancelled request must not retry", hits)
	}
	st := rt.Stats()
	b := st.Backends[0]
	if b.State != StateActive {
		t.Errorf("backend state %v after a client-cancelled 504, want active", b.State)
	}
	if b.Errors != 0 {
		t.Errorf("backend errors = %d, want 0: the client hung up, the node answered", b.Errors)
	}
	if b.ConsecFails != 0 {
		t.Errorf("consecutive failures = %d, want 0", b.ConsecFails)
	}
	if st.Retries != 0 {
		t.Errorf("retries = %d, want 0", st.Retries)
	}
}

// A genuine 504 (no cancelled code) must still score against the backend —
// the fix must not blanket-excuse gateway timeouts.
func TestRouterStillScoresGenuine504(t *testing.T) {
	sick := fakeBackend(t, "n0", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusGatewayTimeout)
		io.WriteString(w, `{"error":"deadline exceeded","code":"deadline"}`)
	})
	cfg := DefaultConfig()
	cfg.Backends = []string{sick.URL}
	cfg.FailThreshold = 1
	rt := newTestRouter(t, cfg)

	postRouter(rt, "/v1/matmul", matmulBody, nil)
	if b := rt.Stats().Backends[0]; b.Errors == 0 {
		t.Errorf("backend errors = 0 after a genuine 504, want it scored")
	}
}

// Router-wide tracing records every proxied request into /debug/requests
// with the hop stage, feeds flumen_router_hop_seconds, and a header-opted
// request has X-Flumen-Trace forwarded to the backend.
func TestRouterTraceRingHopMetricAndHeaderForwarding(t *testing.T) {
	var sawTraceHeader int32
	ok := fakeBackend(t, "n0", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(serve.HeaderTrace) == "1" {
			sawTraceHeader++
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"c":[[1],[2]]}`)
	})
	cfg := DefaultConfig()
	cfg.Backends = []string{ok.URL}
	cfg.TraceEnabled = true
	rt := newTestRouter(t, cfg)

	// Untraced client under router-wide tracing: router observes, backend
	// must NOT see the opt-in header (bodies stay unchanged).
	if w := postRouter(rt, "/v1/matmul", matmulBody, nil); w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200", w.Code)
	}
	if sawTraceHeader != 0 {
		t.Fatal("router forwarded X-Flumen-Trace without client opt-in")
	}
	// Header-opted client: forwarded.
	if w := postRouter(rt, "/v1/matmul", matmulBody, map[string]string{serve.HeaderTrace: "1"}); w.Code != http.StatusOK {
		t.Fatalf("traced status %d, want 200", w.Code)
	}
	if sawTraceHeader != 1 {
		t.Fatalf("backend saw trace header %d times, want 1", sawTraceHeader)
	}

	// Ring: newest-first, hop and select stages recorded.
	req := httptest.NewRequest("GET", "/debug/requests", nil)
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	var recs []struct {
		ID     string             `json:"id"`
		Status int                `json:"status"`
		Stages map[string]float64 `json:"stages"`
	}
	if err := json.NewDecoder(w.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("ring holds %d records, want 2", len(recs))
	}
	for _, rec := range recs {
		if rec.Status != http.StatusOK {
			t.Errorf("ring record status %d, want 200", rec.Status)
		}
		if rec.Stages["router_hop"] <= 0 {
			t.Errorf("ring record missing router_hop stage: %v", rec.Stages)
		}
	}

	// Exposition: the hop histogram counted both proxied attempts.
	mreq := httptest.NewRequest("GET", "/metrics", nil)
	mw := httptest.NewRecorder()
	rt.Handler().ServeHTTP(mw, mreq)
	exposition := mw.Body.String()
	if !strings.Contains(exposition, "flumen_router_hop_seconds_count 2") {
		t.Errorf("metrics missing flumen_router_hop_seconds_count 2:\n%s",
			grepLines(exposition, "flumen_router_hop_seconds"))
	}
}

// grepLines filters an exposition down to lines containing substr for
// readable failure messages.
func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

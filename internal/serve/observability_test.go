package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"flumen/internal/trace"
)

// outcomeCount reads one cell of flumend_request_outcomes_total.
func outcomeCount(s *Server, endpoint, outcome string) int64 {
	s.met.mu.Lock()
	defer s.met.mu.Unlock()
	return s.met.outcomes[endpoint][outcome]
}

func requestErrorCounts(s *Server, endpoint string) (requests, errors, histTotal int64) {
	s.met.mu.Lock()
	defer s.met.mu.Unlock()
	requests = s.met.requests[endpoint]
	errors = s.met.errors[endpoint]
	if h := s.met.hists[endpoint]; h != nil {
		histTotal = h.total
	}
	return
}

func stageTotal(s *Server, st trace.Stage) int64 {
	s.met.mu.Lock()
	defer s.met.mu.Unlock()
	return s.met.stages[st].total
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// Regression: Retry-After documented "rounded up" but used Round, so a
// 1.4s backoff hinted "1" and clients re-hit the same backpressure early.
func TestRetryAfterSecsCeil(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{100 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1400 * time.Millisecond, "2"}, // Round would say "1"
		{2 * time.Second, "2"},
		{2500 * time.Millisecond, "3"},
		{2600 * time.Millisecond, "3"},
	}
	for _, c := range cases {
		if got := RetryAfterSecs(c.d); got != c.want {
			t.Errorf("RetryAfterSecs(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

// A header-opted request gets the stage breakdown in its body, lands in the
// /debug/requests ring, and its wall stages account for (nearly) all of the
// end-to-end latency — the property that makes the breakdown trustworthy.
func TestTraceOptInBodyRingAndStageCoverage(t *testing.T) {
	s, hs := newTestServer(t, testConfig())

	// A cold 64×64 weight matrix: the request does milliseconds of decode and
	// compile work, so the coverage bound below is about the stages and not
	// about how one goroutine hand-off compares with a 2×2 product. One column
	// keeps the response inside net/http's write buffer, so it reaches the
	// client only once the handler has returned and the ring holds the record.
	rng := rand.New(rand.NewSource(5))
	reqBody, _ := json.Marshal(MatMulRequest{M: testMatrix(rng, 64, 64), X: testMatrix(rng, 64, 1)})
	req, err := http.NewRequest("POST", hs.URL+"/v1/matmul", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderTrace, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var body struct {
		C     [][]float64     `json:"c"`
		Trace json.RawMessage `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Trace == nil {
		t.Fatal("X-Flumen-Trace: 1 request has no trace in the response body")
	}
	var tb struct {
		ID      string             `json:"id"`
		TotalMS float64            `json:"total_ms"`
		Stages  map[string]float64 `json:"stages"`
	}
	if err := json.Unmarshal(body.Trace, &tb); err != nil {
		t.Fatalf("trace body: %v", err)
	}
	if tb.ID == "" || tb.ID != resp.Header.Get(HeaderRequestID) {
		t.Errorf("trace id %q does not match %s header %q", tb.ID, HeaderRequestID, resp.Header.Get(HeaderRequestID))
	}
	for _, stage := range []string{"decode", "queue_wait", "exec"} {
		if tb.Stages[stage] <= 0 {
			t.Errorf("trace body missing stage %q: %v", stage, tb.Stages)
		}
	}

	// The ring's record (finalized after the response write) must show the
	// wall stages covering >=95% of end-to-end latency.
	dr, err := http.Get(hs.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Body.Close()
	var recs []struct {
		ID        string  `json:"id"`
		Status    int     `json:"status"`
		TotalMS   float64 `json:"total_ms"`
		WallSumMS float64 `json:"wall_stage_sum_ms"`
	}
	if err := json.NewDecoder(dr.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("/debug/requests empty after a traced request")
	}
	rec := recs[0]
	if rec.ID != tb.ID || rec.Status != http.StatusOK {
		t.Errorf("newest ring record = %+v, want id %s status 200", rec, tb.ID)
	}
	if rec.WallSumMS < 0.95*rec.TotalMS {
		t.Errorf("wall stage sum %.3fms < 95%% of total %.3fms: untraced gap too large", rec.WallSumMS, rec.TotalMS)
	}

	// The same trace fed the per-stage histograms.
	for _, st := range []trace.Stage{trace.StageDecode, trace.StageQueueWait, trace.StageExec, trace.StageWrite} {
		if stageTotal(s, st) == 0 {
			t.Errorf("flumend_stage_seconds{stage=%q} empty after a traced request", st)
		}
	}
}

// Regression: a client that hangs up used to be booked as a 504 error like
// a deadline, inflating error counters and timeout-alert histograms. Now it
// gets its own outcome, stays out of both, and nothing is written to the
// vanished client.
func TestClientCancellationSeparatedFromErrors(t *testing.T) {
	s, hs := newTestServer(t, testConfig())
	release := stallExecutor(t, s)
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reqBody, _ := json.Marshal(MatMulRequest{
		M: [][]float64{{1, 0}, {0, 1}}, X: [][]float64{{1}, {2}},
	})
	req, err := http.NewRequestWithContext(ctx, "POST", hs.URL+"/v1/matmul", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req) //nolint:bodyclose // errors by design
		done <- err
	}()

	// Wait until the request is queued behind the stalled executor, then
	// hang up.
	waitFor(t, "request to queue", func() bool { return s.sched.depth() >= 1 })
	cancel()
	if err := <-done; err == nil {
		t.Fatal("client cancellation did not surface to the client")
	}

	waitFor(t, "cancelled outcome", func() bool {
		return outcomeCount(s, "matmul", outcomeCancelled) == 1
	})
	requests, errors, histTotal := requestErrorCounts(s, "matmul")
	if requests != 1 {
		t.Errorf("requests_total = %d, want 1 (the request was admitted)", requests)
	}
	if errors != 0 {
		t.Errorf("errors_total = %d, want 0: client cancellation is not a server error", errors)
	}
	if histTotal != 0 {
		t.Errorf("latency histogram observed %d samples, want 0: a vanished client's latency measures its patience, not the server", histTotal)
	}
}

// Every error path must land in its intended outcome counter — and only
// there — with tracing healthy alongside.
func TestErrorPathOutcomeMetrics(t *testing.T) {
	t.Run("queue-full rejection", func(t *testing.T) {
		cfg := testConfig()
		cfg.QueueDepth = 2
		cfg.TraceEnabled = true
		s, hs := newTestServer(t, cfg)
		release := stallExecutor(t, s)
		defer release()
		for i := 0; i < cfg.QueueDepth; i++ {
			j := &job{
				ctx: context.Background(), endpoint: "fill", enq: time.Now(),
				done: make(chan jobResult, 1),
				run:  func(ctx context.Context) (any, error) { return nil, nil },
			}
			if err := s.sched.submit(j); err != nil {
				t.Fatalf("filler %d: %v", i, err)
			}
		}
		resp, body := postJSON(t, hs.URL+"/v1/matmul", MatMulRequest{
			M: [][]float64{{1, 0}, {0, 1}}, X: [][]float64{{1}, {2}},
		})
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d (%s), want 503", resp.StatusCode, body)
		}
		if got := outcomeCount(s, "matmul", outcomeRejected); got != 1 {
			t.Errorf("rejected outcome = %d, want 1", got)
		}
		if requests, _, _ := requestErrorCounts(s, "matmul"); requests != 0 {
			t.Errorf("requests_total = %d, want 0: admission rejections are not admitted requests", requests)
		}
		// The rejection was traced: decode ran before admit, the 503 write
		// after.
		if stageTotal(s, trace.StageDecode) == 0 || stageTotal(s, trace.StageWrite) == 0 {
			t.Error("rejected request left no decode/write stage samples despite tracing on")
		}
	})

	t.Run("deadline", func(t *testing.T) {
		cfg := testConfig()
		cfg.TraceEnabled = true
		s, hs := newTestServer(t, cfg)
		release := stallExecutor(t, s)
		defer release()
		resp, body := postJSON(t, hs.URL+"/v1/matmul", MatMulRequest{
			M: [][]float64{{1, 0}, {0, 1}}, X: [][]float64{{1}, {2}}, TimeoutMS: 50,
		})
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
		}
		if got := outcomeCount(s, "matmul", outcomeDeadline); got != 1 {
			t.Errorf("deadline outcome = %d, want 1", got)
		}
		requests, errors, histTotal := requestErrorCounts(s, "matmul")
		if requests != 1 || errors != 1 || histTotal != 1 {
			t.Errorf("requests/errors/hist = %d/%d/%d, want 1/1/1: deadlines are real errors", requests, errors, histTotal)
		}
	})
}

// Regression: every exit of a compute handler before admission — malformed
// body, failed validation, unknown model, oversized body — used to return
// without finalizing the trace, so with tracing on such a request never
// reached /debug/requests or the stage histograms. They all go through
// Server.reject now, which books the decode stage and finalizes.
func TestTracedRejectsReachTheRing(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBodyBytes = 1 << 10
	s, hs := newTestServer(t, cfg)

	cases := []struct {
		name, endpoint, body string
		status               int
	}{
		{"malformed json", "matmul", `{"m": [[1,`, http.StatusBadRequest},
		{"model and inline m", "matmul", `{"model":"w@v1","m":[[1]],"x":[[1]]}`, http.StatusBadRequest},
		{"failed validation", "conv2d", `{"input":[[[1]]],"kernels":[[[[1]],[[1]]]]}`, http.StatusBadRequest},
		{"wrong input shape", "infer", `{"model":"vggfc-micro","vector":[1]}`, http.StatusBadRequest},
		{"unknown model", "matmul", `{"model":"nope@v1","x":[[1]]}`, http.StatusNotFound},
		{"unknown built-in", "infer", `{"model":"nope"}`, http.StatusNotFound},
		{"oversized", "conv2d", `{"input": [[[` + strings.Repeat("1,", 2000) + `1]]]}`, http.StatusRequestEntityTooLarge},
	}
	for i, tc := range cases {
		id := fmt.Sprintf("reject-%d", i)
		req, err := http.NewRequest("POST", hs.URL+"/v1/"+tc.endpoint, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(HeaderTrace, "1")
		req.Header.Set(HeaderRequestID, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		// The record is pushed after the response write, so the client can
		// be ahead of it.
		var rec trace.Record
		waitFor(t, tc.name+" in the trace ring", func() bool {
			for _, r := range s.ring.Snapshot() {
				if r.ID == id {
					rec = r
					return true
				}
			}
			return false
		})
		if rec.Status != tc.status || rec.Endpoint != tc.endpoint {
			t.Errorf("%s: ring record is %s %d, want %s %d", tc.name, rec.Endpoint, rec.Status, tc.endpoint, tc.status)
		}
		if rec.Duration(trace.StageDecode) <= 0 {
			t.Errorf("%s: ring record has no decode stage: %s", tc.name, rec.StageString())
		}
	}
	if got := stageTotal(s, trace.StageDecode); got != int64(len(cases)) {
		t.Errorf("decode-stage histogram holds %d observations, want %d", got, len(cases))
	}
}

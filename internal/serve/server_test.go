package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"flumen"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.Ports = 16
	cfg.BlockSize = 8
	cfg.QueueDepth = 64
	cfg.MaxBatchReqs = 8
	cfg.MaxBatchCols = 32
	cfg.DrainTimeout = 5 * time.Second
	return cfg
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.sched.drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, hs
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func testMatrix(rng *rand.Rand, r, c int) [][]float64 {
	m := make([][]float64, r)
	for i := range m {
		m[i] = make([]float64, c)
		for j := range m[i] {
			m[i][j] = 2*rng.Float64() - 1
		}
	}
	return m
}

// The acceptance-criteria test: 32 parallel clients sharing one weight
// matrix. Every response must be bitwise what a serial Accelerator computes
// for that client's columns, the weight-program cache must be net-positive
// after warmup, and the cache-hit accounting must show the fleet shared the
// compiled programs.
func TestConcurrentMatMulMatchesSerial(t *testing.T) {
	cfg := testConfig()
	s, hs := newTestServer(t, cfg)

	rng := rand.New(rand.NewSource(42))
	m := testMatrix(rng, 16, 16)
	const clients = 32
	xs := make([][][]float64, clients)
	for i := range xs {
		xs[i] = testMatrix(rng, 16, 2)
	}

	// Serial reference on an identically configured accelerator.
	ref, err := flumen.NewAccelerator(cfg.Ports, cfg.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][][]float64, clients)
	for i := range xs {
		want[i], err = ref.MatMul(m, xs[i])
		if err != nil {
			t.Fatal(err)
		}
	}

	// Warm the cache so the parallel fleet hits the compiled programs.
	if resp, body := postJSON(t, hs.URL+"/v1/matmul", MatMulRequest{M: m, X: xs[0]}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup: status %d: %s", resp.StatusCode, body)
	}

	var wg sync.WaitGroup
	status := make([]int, clients)
	got := make([][][]float64, clients)
	batched := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, hs.URL+"/v1/matmul", MatMulRequest{M: m, X: xs[i]})
			status[i] = resp.StatusCode
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			var mr MatMulResponse
			if err := json.Unmarshal(body, &mr); err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			got[i] = mr.C
			batched[i] = mr.Batched
		}(i)
	}
	wg.Wait()

	for i := 0; i < clients; i++ {
		if status[i] != http.StatusOK {
			continue
		}
		for r := range want[i] {
			for c := range want[i][r] {
				if got[i][r][c] != want[i][r][c] {
					t.Fatalf("client %d element (%d,%d) = %v, serial %v (not bitwise-equal)",
						i, r, c, got[i][r][c], want[i][r][c])
				}
			}
		}
	}

	st := s.acc.Stats()
	if st.Cache.Hits <= st.Cache.Misses {
		t.Fatalf("cache hits %d ≤ misses %d after warmup", st.Cache.Hits, st.Cache.Misses)
	}
	t.Logf("cache %d hits / %d misses; max batched = %v", st.Cache.Hits, st.Cache.Misses, maxInt(batched))
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// stallExecutor occupies the scheduler's executor with a direct job that
// blocks until the returned release func is called, so tests can stage queue
// contents while jobs provably sit in the queue.
func stallExecutor(t *testing.T, s *Server) (release func()) {
	t.Helper()
	started := make(chan struct{})
	block := make(chan struct{})
	j := &job{
		ctx:      context.Background(),
		endpoint: "stall",
		enq:      time.Now(),
		done:     make(chan jobResult, 1),
		run: func(ctx context.Context) (any, error) {
			close(started)
			<-block
			return nil, nil
		},
	}
	if err := s.sched.submit(j); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("executor never picked up the stall job")
	}
	var once sync.Once
	return func() { once.Do(func() { close(block) }) }
}

// A full admission queue must shed load with 503 + Retry-After, not block.
func TestQueueFullReturns503(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 2
	s, hs := newTestServer(t, cfg)

	release := stallExecutor(t, s)
	defer release()

	// Fill the queue behind the stalled executor.
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
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 response missing Retry-After")
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Fatalf("503 body %q not an error payload", body)
	}
}

// A request whose deadline expires while queued must get 504 and must not
// reach the fabric once the executor dequeues it.
func TestQueuedRequestDeadline(t *testing.T) {
	cfg := testConfig()
	s, hs := newTestServer(t, cfg)

	release := stallExecutor(t, s)

	resp, body := postJSON(t, hs.URL+"/v1/matmul", MatMulRequest{
		M: [][]float64{{1, 0}, {0, 1}}, X: [][]float64{{1}, {2}}, TimeoutMS: 50,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}

	release()
	// Once the executor drains the abandoned job, no fabric work may have
	// happened on its behalf.
	deadline := time.Now().Add(5 * time.Second)
	for s.sched.depth() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := s.acc.Stats(); st.Programs != 0 {
		t.Fatalf("cancelled request still ran %d programs", st.Programs)
	}
}

func TestConv2DEndpointMatchesAccelerator(t *testing.T) {
	cfg := testConfig()
	_, hs := newTestServer(t, cfg)

	rng := rand.New(rand.NewSource(3))
	input := make([][][]float64, 2)
	for c := range input {
		input[c] = testMatrix(rng, 6, 6)
	}
	kernels := make([][][][]float64, 3)
	for k := range kernels {
		kernels[k] = make([][][]float64, 2)
		for c := range kernels[k] {
			kernels[k][c] = testMatrix(rng, 3, 3)
		}
	}

	ref, err := flumen.NewAccelerator(cfg.Ports, cfg.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Conv2D(input, kernels, 1, 1)
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, hs.URL+"/v1/conv2d", Conv2DRequest{Input: input, Kernels: kernels, Stride: 1, Pad: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cr Conv2DResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	for k := range want {
		for y := range want[k] {
			for x := range want[k][y] {
				if cr.Output[k][y][x] != want[k][y][x] {
					t.Fatalf("element (%d,%d,%d): %v vs %v", k, y, x, cr.Output[k][y][x], want[k][y][x])
				}
			}
		}
	}
}

func TestInferEndpoint(t *testing.T) {
	cfg := testConfig()
	_, hs := newTestServer(t, cfg)

	rng := rand.New(rand.NewSource(11))
	volume := make([][][]float64, 2)
	for c := range volume {
		volume[c] = testMatrix(rng, 8, 8)
	}

	run := func() InferResponse {
		resp, body := postJSON(t, hs.URL+"/v1/infer", InferRequest{Model: "tiny-cnn", Volume: volume})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var ir InferResponse
		if err := json.Unmarshal(body, &ir); err != nil {
			t.Fatal(err)
		}
		return ir
	}
	first := run()
	if len(first.Logits) != 10 || first.Class < 0 || first.Class >= 10 {
		t.Fatalf("bad inference payload: %+v", first)
	}
	second := run()
	for i := range first.Logits {
		if first.Logits[i] != second.Logits[i] {
			t.Fatalf("inference not deterministic: logit %d %v vs %v", i, first.Logits[i], second.Logits[i])
		}
	}

	// FC-only model takes a vector.
	vec := make([]float64, 64)
	for i := range vec {
		vec[i] = rng.Float64()
	}
	resp, body := postJSON(t, hs.URL+"/v1/infer", InferRequest{Model: "vggfc-micro", Vector: vec})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("vggfc-micro: status %d: %s", resp.StatusCode, body)
	}

	// Pool-headed conv model.
	vol4 := make([][][]float64, 4)
	for c := range vol4 {
		vol4[c] = testMatrix(rng, 8, 8)
	}
	resp, body = postJSON(t, hs.URL+"/v1/infer", InferRequest{Model: "resnet-micro", Volume: vol4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resnet-micro: status %d: %s", resp.StatusCode, body)
	}

	// Unknown model and wrong shapes are client errors.
	resp, _ = postJSON(t, hs.URL+"/v1/infer", InferRequest{Model: "nope"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: status %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, hs.URL+"/v1/infer", InferRequest{Model: "tiny-cnn", Volume: volume[:1]})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong shape: status %d, want 400", resp.StatusCode)
	}
}

func TestValidationRejectsMalformedRequests(t *testing.T) {
	cfg := testConfig()
	_, hs := newTestServer(t, cfg)

	cases := []struct {
		name string
		body string
	}{
		{"bad json", `{"m": [[1,`},
		{"empty m", `{"m": [], "x": []}`},
		{"ragged m", `{"m": [[1,2],[3]], "x": [[1],[2]]}`},
		{"dim mismatch", `{"m": [[1,2]], "x": [[1]]}`},
		{"nan entry", `{"m": [[1e999,0],[0,1]], "x": [[1],[2]]}`},
		{"null row in m", `{"m": [[1],null], "x": [[1]]}`},
		{"null row in x", `{"m": [[1,2]], "x": [[1],null]}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(hs.URL+"/v1/matmul", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}

	// Conv2d shape errors.
	resp, _ := postJSON(t, hs.URL+"/v1/conv2d", Conv2DRequest{
		Input:   [][][]float64{{{1, 2}, {3, 4}}},
		Kernels: [][][][]float64{{{{1}}, {{1}}}}, // 2 kernel channels vs 1 input channel
		Stride:  1,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("conv2d channel mismatch: status %d, want 400", resp.StatusCode)
	}
	for _, body := range []string{
		`{"input":[[[1,2],[3,4]],null],"kernels":[[[[1]],[[1]]]]}`,
		`{"input":[[[1,2],[3,4]]],"kernels":[[[[1]]],null]}`,
	} {
		r, err := http.Post(hs.URL+"/v1/conv2d", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("conv2d null element %s: status %d, want 400", body, r.StatusCode)
		}
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	cfg := testConfig()
	_, hs := newTestServer(t, cfg)

	resp, body := postJSON(t, hs.URL+"/v1/matmul", MatMulRequest{
		M: [][]float64{{1, 0}, {0, 1}}, X: [][]float64{{1}, {2}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matmul: status %d: %s", resp.StatusCode, body)
	}

	hr, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", hr.StatusCode)
	}
	var health HealthResponse
	if err := json.Unmarshal(hb, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Partitions != 2 || health.QueueCapacity != cfg.QueueDepth {
		t.Fatalf("healthz payload: %+v", health)
	}

	mr, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	text := string(mb)
	for _, want := range []string{
		`flumend_requests_total{endpoint="matmul"} 1`,
		"flumend_queue_capacity " + fmt.Sprint(cfg.QueueDepth),
		"flumend_cache_misses_total",
		"flumend_energy_picojoules_total",
		"flumend_partitions 2",
		`flumend_request_duration_seconds_count{endpoint="matmul"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// Profiling endpoints are opt-in: absent by default, mounted with
// Config.EnablePprof (flumend -pprof).
func TestPprofGate(t *testing.T) {
	_, off := newTestServer(t, testConfig())
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof off: status %d, want 404", resp.StatusCode)
	}

	cfg := testConfig()
	cfg.EnablePprof = true
	_, on := newTestServer(t, cfg)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/goroutine?debug=1"} {
		resp, err := http.Get(on.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pprof on: %s status %d, want 200", path, resp.StatusCode)
		}
	}
}

// Run must bind, serve, and drain cleanly when its context is cancelled,
// finishing already-queued work first.
func TestRunGracefulDrain(t *testing.T) {
	cfg := testConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx) }()

	url := "http://" + s.Addr()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, body := postJSON(t, url+"/v1/matmul", MatMulRequest{
		M: [][]float64{{2, 0}, {0, 2}}, X: [][]float64{{1}, {1}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matmul: status %d: %s", resp.StatusCode, body)
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run returned %v, want clean drain", err)
		}
	case <-time.After(cfg.DrainTimeout + 5*time.Second):
		t.Fatal("Run never returned after cancellation")
	}

	// Admission is closed after drain.
	j := &job{ctx: context.Background(), endpoint: "late", enq: time.Now(),
		done: make(chan jobResult, 1),
		run:  func(ctx context.Context) (any, error) { return nil, nil }}
	if err := s.sched.submit(j); err != errDraining {
		t.Fatalf("submit after drain = %v, want errDraining", err)
	}
}

func TestWeightFingerprint(t *testing.T) {
	a := [][]float64{{1, 2}, {3, 4}}
	b := [][]float64{{1, 2}, {3, 4}}
	c := [][]float64{{1, 2}, {3, 5}}
	if WeightFingerprint(a) != WeightFingerprint(b) {
		t.Fatal("identical matrices fingerprint differently")
	}
	if WeightFingerprint(a) == WeightFingerprint(c) {
		t.Fatal("different matrices share a fingerprint")
	}
	// Shape is part of the key: a 1×4 and a 2×2 with the same elements
	// must not collide.
	d := [][]float64{{1, 2, 3, 4}}
	if WeightFingerprint(a) == WeightFingerprint(d) {
		t.Fatal("shape not encoded in fingerprint")
	}
	// Signed zero is a distinct bit pattern and must stay distinct: the
	// engine's block fingerprints are bit-exact, so coalescing must be too.
	z1 := [][]float64{{0.0}}
	z2 := [][]float64{{math.Copysign(0, -1)}}
	if WeightFingerprint(z1) == WeightFingerprint(z2) {
		t.Fatal("±0 collapsed into one fingerprint")
	}
}

// TestMatMulEndpointExtremeWeights posts weights that are legal JSON numbers
// but whose squares overflow or underflow float64: the answer used to be 200
// with a matrix of zeros.
func TestMatMulEndpointExtremeWeights(t *testing.T) {
	_, hs := newTestServer(t, testConfig())
	for _, w := range []float64{1e200, -3e-200} {
		req := MatMulRequest{M: make([][]float64, 8), X: make([][]float64, 8)}
		for i := range req.M {
			req.M[i] = make([]float64, 8)
			req.M[i][i] = w
			req.M[i][(i+3)%8] = w / 2
			req.X[i] = []float64{float64(i + 1)}
		}
		resp, data := postJSON(t, hs.URL+"/v1/matmul", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("w=%g: status %d: %s", w, resp.StatusCode, data)
		}
		var out MatMulResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		for i := range req.M {
			want := w*float64(i+1) + w/2*float64((i+3)%8+1)
			if got := out.C[i][0]; !(math.Abs(got-want) <= 0.05*math.Abs(w)*8) {
				t.Fatalf("w=%g: C[%d] = %g, want %g", w, i, got, want)
			}
		}
	}
}

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flumen"
	"flumen/internal/registry"
	"flumen/internal/serve"
)

// TestRouterModelFanoutAndReplay is the cluster registry drill: a model
// registered through the router must land on every backend, by-name
// requests must be served bitwise-identically to inline ones while a node
// is killed and restarted mid-load, and the router must re-register the
// model into the reinstated (memoryless) backend — the replay path.
func TestRouterModelFanoutAndReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration test")
	}
	serveCfg := serve.DefaultConfig()
	serveCfg.Addr = "127.0.0.1:0"
	serveCfg.Ports = 16
	serveCfg.BlockSize = 8
	serveCfg.QueueDepth = 256
	serveCfg.DrainTimeout = 5 * time.Second
	// No StoreDir: a restarted backend forgets everything, so only the
	// router's replay can restore its models.

	const (
		dim      = 16
		nrhs     = 2
		requests = 160
		workers  = 4
	)
	rng := rand.New(rand.NewSource(41))
	m := make([][]float64, dim)
	for i := range m {
		m[i] = make([]float64, dim)
		for j := range m[i] {
			m[i][j] = rng.NormFloat64()
		}
	}
	x := make([][]float64, dim)
	for i := range x {
		x[i] = make([]float64, nrhs)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
	}
	ref, err := flumen.NewAccelerator(serveCfg.Ports, serveCfg.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.MatMul(m, x)
	if err != nil {
		t.Fatal(err)
	}

	h, err := startBackends(2, serveCfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()

	cfg := DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.Backends = h.URLs()
	cfg.ProbeInterval = 25 * time.Millisecond
	cfg.ProbeTimeout = 500 * time.Millisecond
	cfg.FailThreshold = 2
	cfg.EjectionTime = 200 * time.Millisecond
	cfg.ReinstateAfter = 2
	cfg.MaxRetries = 2
	cfg.RetryBudget = 1
	cfg.RetryBurst = 50
	cfg.AttemptTimeout = 5 * time.Second
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Listen(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- rt.Run(ctx) }()
	base := "http://" + rt.Addr()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}

	// Register through the router: the fan-out must reach every backend.
	spec := &registry.Spec{Name: "fleet-w", Version: "v1", Kind: registry.KindMatMul, M: m}
	specBody, _ := json.Marshal(spec)
	resp, err := client.Post(base+"/v1/models", "application/json", bytes.NewReader(specBody))
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register through router: %d: %s", resp.StatusCode, rb)
	}

	backendHasModel := func(i int) bool {
		st := h.Backend(i)
		if st == nil {
			return false
		}
		return st.Registry().Stats().Models == 1
	}
	for i := 0; i < h.N(); i++ {
		if !backendHasModel(i) {
			t.Fatalf("backend %d missing the model after fan-out", i)
		}
	}
	if st := rt.Stats(); st.Models != 1 {
		t.Fatalf("router directory has %d models, want 1", st.Models)
	}

	// The by-name routing key must equal the inline fingerprint, so by-name
	// and inline traffic share a warm home node.
	byNameBody, _ := json.Marshal(map[string]any{"model": "fleet-w@v1", "x": x})
	inlineBody, _ := json.Marshal(map[string]any{"m": m, "x": x})
	byNameKey, err := rt.matmulKey(byNameBody)
	if err != nil {
		t.Fatal(err)
	}
	inlineKey, err := rt.matmulKey(inlineBody)
	if err != nil {
		t.Fatal(err)
	}
	if byNameKey != inlineKey {
		t.Fatalf("by-name routing key %q != inline key %q", byNameKey, inlineKey)
	}
	post := func() error {
		resp, err := client.Post(base+"/v1/matmul", "application/json", bytes.NewReader(byNameBody))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		rb, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d: %s", resp.StatusCode, rb)
		}
		var mr serve.MatMulResponse
		if err := json.Unmarshal(rb, &mr); err != nil {
			return err
		}
		for i := range mr.C {
			for j := range mr.C[i] {
				if math.Float64bits(mr.C[i][j]) != math.Float64bits(want[i][j]) {
					return fmt.Errorf("bitwise mismatch at [%d][%d]", i, j)
				}
			}
		}
		return nil
	}
	if err := post(); err != nil {
		t.Fatalf("by-name through router: %v", err)
	}

	// Find the model's home backend and kill it mid-load: the router must
	// absorb the crash, then replay the registration after reinstatement.
	_, home := rt.pool.candidates(byNameKey)
	victim := -1
	for i, u := range h.URLs() {
		if u == home.name {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatalf("home %s not among harness URLs", home.name)
	}

	waitState := func(b *backend, s State, within time.Duration, what string) {
		t.Helper()
		deadline := time.Now().Add(within)
		for time.Now().Before(deadline) {
			if b.snapshot().State == s {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("%s: backend %s stuck in %v, want %v", what, b.name, b.snapshot().State, s)
	}

	var next, errs, bitwiseErrs atomic.Int64
	var wg sync.WaitGroup
	killAt, restartAt := int64(requests/4), int64(requests/2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= requests {
					return
				}
				switch i {
				case killAt:
					if err := h.Kill(victim); err != nil {
						t.Errorf("kill: %v", err)
					}
				case restartAt:
					waitState(home, StateEjected, 5*time.Second, "post-kill")
					if err := h.Restart(victim); err != nil {
						t.Errorf("restart: %v", err)
					}
				}
				if err := post(); err != nil {
					errs.Add(1)
					if bytes.Contains([]byte(err.Error()), []byte("bitwise")) {
						bitwiseErrs.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()

	waitState(home, StateActive, 5*time.Second, "post-restart")

	// The restarted backend came back empty; the router's replay must have
	// re-registered the model into it.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !backendHasModel(victim) {
		time.Sleep(10 * time.Millisecond)
	}
	if !backendHasModel(victim) {
		t.Error("model never replayed into the reinstated backend")
	}
	// And by-name traffic to the reinstated home keeps answering bitwise.
	if err := post(); err != nil {
		t.Errorf("by-name after replay: %v", err)
	}

	cancel()
	if err := <-runDone; err != nil {
		t.Errorf("router drain: %v", err)
	}

	if n := bitwiseErrs.Load(); n != 0 {
		t.Errorf("%d responses differed bitwise from the reference", n)
	}
	if got, limit := errs.Load(), int64(requests/8); got > limit {
		t.Errorf("%d/%d by-name requests failed (limit %d)", got, requests, limit)
	}
	if st := rt.Stats(); st.ModelReplays < 1 {
		t.Errorf("router counted %d replays, want >= 1", st.ModelReplays)
	}
}

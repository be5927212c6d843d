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
	"flumen/internal/serve"
	"flumen/internal/wfp"
)

// TestFailoverUnderLoad is the cluster's crash drill: a fleet of three real
// flumend backends serves concurrent traffic while one node is killed
// abruptly mid-load and later restarted. The router must (1) keep the
// client-visible error rate bounded by absorbing the crash with retries,
// (2) eject the dead node via its health machinery and reinstate it after
// the restart, and (3) never let any successful response differ by a single
// bit from what a lone flumend would have answered — failover must be
// invisible in the payload bits.
func TestFailoverUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration test")
	}
	serveCfg := serve.DefaultConfig()
	serveCfg.Addr = "127.0.0.1:0"
	serveCfg.Ports = 16
	serveCfg.BlockSize = 8
	serveCfg.QueueDepth = 256
	serveCfg.DrainTimeout = 5 * time.Second

	const (
		matrices = 3
		dim      = 16
		nrhs     = 2
		requests = 240
		workers  = 4
	)
	rng := rand.New(rand.NewSource(11))
	ms := make([][][]float64, matrices)
	for k := range ms {
		ms[k] = make([][]float64, dim)
		for i := range ms[k] {
			ms[k][i] = make([]float64, dim)
			for j := range ms[k][i] {
				ms[k][i][j] = rng.NormFloat64()
			}
		}
	}
	x := make([][]float64, dim)
	for i := range x {
		x[i] = make([]float64, nrhs)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
	}

	// The single-node truth: what a lone flumend's accelerator answers.
	ref, err := flumen.NewAccelerator(serveCfg.Ports, serveCfg.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][][]float64, matrices)
	for k := range ms {
		if want[k], err = ref.MatMul(ms[k], x); err != nil {
			t.Fatal(err)
		}
	}

	h, err := startBackends(3, serveCfg, 0)
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
	cfg.RetryBudget = 1 // crash-drill generosity: every request may retry
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

	// Kill the node that owns matrix 0, so the crash provably hits a node
	// that was taking affinity traffic.
	key0 := wfp.Matrix(ms[0])
	_, home := rt.pool.candidates(key0)
	victim := -1
	for i, u := range h.URLs() {
		if u == home.name {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatalf("home %s not among harness URLs", home.name)
	}
	victimBackend := home

	bodies := make([][]byte, matrices)
	for k := range ms {
		bodies[k], _ = json.Marshal(map[string]any{"m": ms[k], "x": x})
	}
	post := func(k int) error {
		resp, err := client.Post(base+"/v1/matmul", "application/json", bytes.NewReader(bodies[k]))
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
		if len(mr.C) != dim {
			return fmt.Errorf("short result: %d rows", len(mr.C))
		}
		for i := range mr.C {
			for j := range mr.C[i] {
				if math.Float64bits(mr.C[i][j]) != math.Float64bits(want[k][i][j]) {
					return fmt.Errorf("response for matrix %d differs bitwise at [%d][%d]", k, i, j)
				}
			}
		}
		return nil
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
	var firstErr sync.Once
	var firstErrMsg atomic.Value
	var wg sync.WaitGroup
	killAt, restartAt := int64(requests/4), int64(requests/2)
	killed, restarted := make(chan struct{}), make(chan struct{})
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
					close(killed)
				case restartAt:
					// Only restart once the router has noticed the corpse:
					// the drill must cover the ejected window under load.
					waitState(victimBackend, StateEjected, 5*time.Second, "post-kill")
					if err := h.Restart(victim); err != nil {
						t.Errorf("restart: %v", err)
					}
					close(restarted)
				}
				if err := post(int(i) % matrices); err != nil {
					errs.Add(1)
					if bytes.Contains([]byte(err.Error()), []byte("bitwise")) {
						bitwiseErrs.Add(1)
					}
					firstErr.Do(func() { firstErrMsg.Store(err.Error()) })
				}
			}
		}()
	}
	wg.Wait()
	<-killed
	<-restarted

	// The restarted node must be reinstated — probation and all — shortly
	// after coming back.
	waitState(victimBackend, StateActive, 5*time.Second, "post-restart")

	cancel()
	if err := <-runDone; err != nil {
		t.Errorf("router drain: %v", err)
	}

	if n := bitwiseErrs.Load(); n != 0 {
		t.Errorf("%d responses differed bitwise from the single-node reference", n)
	}
	// Retries absorb the crash for most requests; allow a small detection
	// window where in-flight work dies with the node.
	if got, limit := errs.Load(), int64(requests/10); got > limit {
		msg, _ := firstErrMsg.Load().(string)
		t.Errorf("%d/%d requests failed (limit %d); first error: %s", got, requests, limit, msg)
	}
	st := victimBackend.snapshot()
	if st.Ejections < 1 {
		t.Errorf("victim was never ejected: %+v", st)
	}
	if st.Reinstates < 1 {
		t.Errorf("victim was never reinstated: %+v", st)
	}
	if st.State != StateActive {
		t.Errorf("victim finished in state %v, want active", st.State)
	}
}

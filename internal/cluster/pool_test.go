package cluster

import (
	"testing"
	"time"
)

func machineConfig() *Config {
	cfg := DefaultConfig()
	cfg.Backends = []string{"http://a:1"}
	cfg.FailThreshold = 3
	cfg.EjectionTime = 10 * time.Second
	cfg.ReinstateAfter = 2
	return &cfg
}

// TestBackendStateMachine walks the full ejection lifecycle with synthetic
// clock times: active → ejected on consecutive failures, cooldown gating,
// probation, reinstatement, and straight-back-to-ejected on a probation
// failure.
func TestBackendStateMachine(t *testing.T) {
	cfg := machineConfig()
	b := &backend{name: "http://a:1"}
	t0 := time.Unix(1000, 0)

	// Failures below the threshold keep the backend active; a success in
	// between resets the streak.
	b.observeFailure(cfg, t0)
	b.observeFailure(cfg, t0)
	b.observeSuccess(cfg, t0)
	b.observeFailure(cfg, t0)
	b.observeFailure(cfg, t0)
	if got := b.snapshot().State; got != StateActive {
		t.Fatalf("after interrupted failure streak: state %v, want active", got)
	}

	// The third consecutive failure ejects.
	b.observeFailure(cfg, t0)
	if got := b.snapshot().State; got != StateEjected {
		t.Fatalf("after %d consecutive failures: state %v, want ejected", cfg.FailThreshold, got)
	}
	if got := b.snapshot().Ejections; got != 1 {
		t.Fatalf("ejections = %d, want 1", got)
	}

	// Successes during the cooldown do not readmit.
	b.observeSuccess(cfg, t0.Add(cfg.EjectionTime/2))
	if got := b.snapshot().State; got != StateEjected {
		t.Fatalf("success inside cooldown: state %v, want ejected", got)
	}

	// After the cooldown, one success moves it to probation...
	b.observeSuccess(cfg, t0.Add(cfg.EjectionTime))
	if got := b.snapshot().State; got != StateProbation {
		t.Fatalf("success after cooldown: state %v, want probation", got)
	}
	// ...and ReinstateAfter consecutive successes reinstate (the probation
	// entry success counts as the first).
	b.observeSuccess(cfg, t0.Add(cfg.EjectionTime+time.Second))
	if got := b.snapshot().State; got != StateActive {
		t.Fatalf("after %d probation successes: state %v, want active", cfg.ReinstateAfter, got)
	}
	if got := b.snapshot().Reinstates; got != 1 {
		t.Fatalf("reinstates = %d, want 1", got)
	}

	// A probation failure goes straight back to ejected with a fresh
	// cooldown — no threshold grace.
	for i := 0; i < cfg.FailThreshold; i++ {
		b.observeFailure(cfg, t0.Add(20*time.Second))
	}
	b.observeSuccess(cfg, t0.Add(20*time.Second).Add(cfg.EjectionTime))
	if got := b.snapshot().State; got != StateProbation {
		t.Fatalf("re-entering probation: state %v, want probation", got)
	}
	tFail := t0.Add(40 * time.Second)
	b.observeFailure(cfg, tFail)
	if got := b.snapshot().State; got != StateEjected {
		t.Fatalf("failure during probation: state %v, want ejected", got)
	}
	b.observeSuccess(cfg, tFail.Add(cfg.EjectionTime/2))
	if got := b.snapshot().State; got != StateEjected {
		t.Fatalf("probation failure must restart the cooldown: state %v, want ejected", got)
	}
}

// TestCandidatesTiering: healthy actives outrank degraded actives outrank
// probationary backends, ejected backends are excluded, and home is the
// rendezvous-first node regardless of health.
func TestCandidatesTiering(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Backends = []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := newPool(&cfg)
	if err != nil {
		t.Fatal(err)
	}

	const key = "some-weight-fingerprint"
	rank := rendezvousOrder(key, p.hashes)
	wantHome := p.backends[rank[0]]

	// Degrade the rendezvous-first backend, eject the second, put the third
	// on probation; only the fourth stays healthy-active.
	p.backends[rank[0]].degraded = true
	p.backends[rank[1]].state = StateEjected
	p.backends[rank[2]].state = StateProbation

	order, home := p.candidates(key)
	if home != wantHome {
		t.Fatalf("home = %s, want rendezvous-first %s", home.name, wantHome.name)
	}
	want := []*backend{p.backends[rank[3]], p.backends[rank[0]], p.backends[rank[2]]}
	if len(order) != len(want) {
		t.Fatalf("got %d candidates, want %d (ejected must be excluded)", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("candidate %d = %s, want %s (healthy > degraded > probation)", i, order[i].name, want[i].name)
		}
	}
}

func TestRetryBudget(t *testing.T) {
	b := newRetryBudget(0.5, 2)
	// Starts full at burst.
	if !b.take() || !b.take() {
		t.Fatal("budget should start at burst capacity")
	}
	if b.take() {
		t.Fatal("empty budget granted a token")
	}
	// Two admitted requests at ratio 0.5 earn one retry.
	b.onRequest()
	if b.take() {
		t.Fatal("half a token granted a retry")
	}
	b.onRequest()
	if !b.take() {
		t.Fatal("earned token not granted")
	}
	// Refill is capped at burst.
	for i := 0; i < 100; i++ {
		b.onRequest()
	}
	if got := b.available(); got != 2 {
		t.Fatalf("available = %v, want cap 2", got)
	}
}

func TestConfigValidate(t *testing.T) {
	t.Run("defaults fill zero values", func(t *testing.T) {
		cfg := Config{Backends: []string{"http://a:1"}}
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		d := DefaultConfig()
		if cfg.Addr != d.Addr || cfg.ProbeInterval != d.ProbeInterval ||
			cfg.FailThreshold != d.FailThreshold || cfg.MaxBodyBytes != d.MaxBodyBytes {
			t.Fatalf("defaults not applied: %+v", cfg)
		}
	})
	t.Run("normalizes backend URLs", func(t *testing.T) {
		cfg := Config{Backends: []string{"  http://a:1/  "}}
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		if cfg.Backends[0] != "http://a:1" {
			t.Fatalf("backend not normalized: %q", cfg.Backends[0])
		}
	})
	bad := []struct {
		name string
		cfg  Config
	}{
		{"no backends", Config{}},
		{"relative URL", Config{Backends: []string{"a:1"}}},
		{"empty backend", Config{Backends: []string{"http://a:1", "  "}}},
		{"duplicate backend", Config{Backends: []string{"http://a:1", "http://a:1/"}}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); err == nil {
				t.Fatalf("Validate accepted %+v", tc.cfg)
			}
		})
	}
}

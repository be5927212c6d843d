package noc

import (
	"math/rand"
	"testing"
)

// Table-driven checks of the deterministic permutation patterns against
// hand-computed destinations.
func TestPermutationPatternTables(t *testing.T) {
	cases := []struct {
		name string
		pat  Pattern
		n    int
		want map[int]int // src -> dst
	}{
		{
			name: "transpose-16",
			pat:  Transpose(16),
			n:    16,
			// 4-bit index ab|cd → cd|ab.
			want: map[int]int{0: 0, 1: 4, 2: 8, 3: 12, 4: 1, 5: 5, 6: 9, 7: 13, 10: 10, 11: 14, 15: 15},
		},
		{
			name: "transpose-4",
			pat:  Transpose(4),
			n:    4,
			want: map[int]int{0: 0, 1: 2, 2: 1, 3: 3},
		},
		{
			name: "bitcomp-16",
			pat:  BitComplement(16),
			n:    16,
			want: map[int]int{0: 15, 1: 14, 2: 13, 5: 10, 7: 8, 8: 7, 15: 0},
		},
		{
			name: "bitcomp-8",
			pat:  BitComplement(8),
			n:    8,
			want: map[int]int{0: 7, 1: 6, 3: 4, 7: 0},
		},
		{
			name: "bitrev-8",
			pat:  BitReversal(8),
			n:    8,
			want: map[int]int{0: 0, 1: 4, 2: 2, 3: 6, 4: 1, 6: 3, 7: 7},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for src, want := range tc.want {
				if got := tc.pat.Dest(src, nil); got != want {
					t.Errorf("%s.Dest(%d) = %d, want %d", tc.pat.Name, src, got, want)
				}
			}
			// Deterministic patterns over power-of-two node counts must be
			// permutations: every destination hit exactly once.
			seen := make(map[int]bool, tc.n)
			for src := 0; src < tc.n; src++ {
				d := tc.pat.Dest(src, nil)
				if d < 0 || d >= tc.n {
					t.Fatalf("%s.Dest(%d) = %d out of range", tc.pat.Name, src, d)
				}
				if seen[d] {
					t.Fatalf("%s: destination %d hit twice", tc.pat.Name, d)
				}
				seen[d] = true
			}
		})
	}
}

func TestBitComplementInvolutionAndValidation(t *testing.T) {
	p := BitComplement(16)
	for src := 0; src < 16; src++ {
		if back := p.Dest(p.Dest(src, nil), nil); back != src {
			t.Fatalf("bit-complement not an involution at %d: round-trips to %d", src, back)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("BitComplement(12) did not panic on non-power-of-two")
		}
	}()
	BitComplement(12)
}

func TestAllPatternsIncludesBitComplement(t *testing.T) {
	found := false
	for _, p := range AllPatterns(16) {
		if p.Name == "bitcomp" {
			found = true
		}
	}
	if !found {
		t.Fatal("AllPatterns(16) missing bitcomp")
	}
}

func TestMZIMCycleTelemetry(t *testing.T) {
	m := NewMZIM(4, 64, 2)
	for i := 0; i < 3; i++ {
		if !m.Inject(&Packet{ID: int64(i), Src: i, Dst: (i + 1) % 4, Bits: 64}, 0) {
			t.Fatalf("inject %d refused", i)
		}
	}
	inj, q := m.CycleTelemetry()
	if inj != 3 || q != 3 {
		t.Fatalf("telemetry after 3 injections: inj=%d queued=%d, want 3,3", inj, q)
	}
	// The injection counter resets per read; occupancy does not.
	inj, q = m.CycleTelemetry()
	if inj != 0 || q != 3 {
		t.Fatalf("telemetry re-read: inj=%d queued=%d, want 0,3", inj, q)
	}
	// Drain and confirm occupancy reaches zero.
	for c := int64(0); c < 50; c++ {
		m.Step(c)
	}
	if _, q = m.CycleTelemetry(); q != 0 {
		t.Fatalf("queued=%d after drain, want 0", q)
	}
}

func TestRunSyntheticOnCycleHook(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.WarmupCycles = 10
	cfg.MeasureCycles = 100
	cfg.DrainCycles = 500
	var calls int64
	var lastCycle int64 = -1
	var injSeen int
	cfg.OnCycle = func(now int64, net Network) {
		if now != lastCycle+1 {
			t.Fatalf("OnCycle skipped from %d to %d", lastCycle, now)
		}
		lastCycle = now
		calls++
		if m, ok := net.(*MZIMNet); ok {
			inj, _ := m.CycleTelemetry()
			injSeen += inj
		}
	}
	res := RunSynthetic(NewMZIM(4, 64, 2), Uniform(4), 0.1, cfg)
	if calls != res.ElapsedCycles {
		t.Fatalf("OnCycle fired %d times over %d cycles", calls, res.ElapsedCycles)
	}
	if int64(injSeen) != res.Counters.InjectedPackets {
		t.Fatalf("per-cycle telemetry saw %d injections, counters say %d",
			injSeen, res.Counters.InjectedPackets)
	}
}

// TestRunSyntheticStepAt holds the load at zero until StepAt: nothing is
// injected before it, and the measured packets generated — counted by
// replaying the generation draws from StepAt on, which only holds if none
// was made before it — are each either delivered or left undelivered.
func TestRunSyntheticStepAt(t *testing.T) {
	const nodes = 8
	pat := BitReversal(nodes) // draws nothing from the run's RNG
	for _, c := range []struct {
		name  string
		rate  float64
		drain int64
	}{
		{"drained", 0.05, 2000},
		{"cut short", 0.9, 10},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultRunConfig()
			cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 50, 200, c.drain
			cfg.StepAt = 100
			firstInjected := int64(-1)
			cfg.OnCycle = func(now int64, net Network) {
				if firstInjected < 0 && net.Counters().InjectedPackets > 0 {
					firstInjected = now
				}
			}
			res := RunSynthetic(NewMZIM(nodes, 256, 3), pat, c.rate, cfg)
			genEnd := cfg.WarmupCycles + cfg.MeasureCycles
			if firstInjected < cfg.StepAt || firstInjected >= genEnd {
				t.Fatalf("first injection in cycle %d, want one in [%d, %d)", firstInjected, cfg.StepAt, genEnd)
			}

			rng := rand.New(rand.NewSource(cfg.Seed))
			var measured int64
			for cycle := cfg.StepAt; cycle < genEnd; cycle++ {
				for s := 0; s < nodes; s++ {
					if rng.Float64() < c.rate && cycle >= cfg.WarmupCycles {
						measured++
					}
				}
			}
			if got := res.MeasuredDelivered + res.Undelivered; got != measured {
				t.Fatalf("delivered %d + undelivered %d = %d, want the %d measured packets generated",
					res.MeasuredDelivered, res.Undelivered, got, measured)
			}
			if (res.Undelivered > 0) != (c.drain < 100) || res.Saturated != (res.Undelivered > 0) {
				t.Fatalf("drain %d left %d undelivered (saturated %v)", c.drain, res.Undelivered, res.Saturated)
			}
		})
	}
}

package flumen

import (
	"math"
	"math/rand"
	"testing"
)

// TestPrewarmWeightsPinsAgainstEviction: pinned block programs must survive
// arbitrary cache churn from other weights, and unpinning must return them
// to normal LRU lifetime.
func TestPrewarmWeightsPinsAgainstEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := randMatrix(rng, 16, 16) // 4 blocks at block size 8
	other := randMatrix(rng, 16, 16)
	x := randMatrix(rng, 16, 2)

	a := newEngineAccel(t, 16, 8)
	a.SetWorkers(1)
	a.SetProgramCacheSize(4)

	pinned, err := a.PrewarmWeights(m)
	if err != nil {
		t.Fatal(err)
	}
	if pinned != 4 {
		t.Fatalf("PrewarmWeights pinned %d programs, want 4", pinned)
	}
	st := a.Stats().Cache
	if st.Pinned != 4 || st.Entries != 4 {
		t.Fatalf("after prewarm: %+v, want 4 pinned of 4 entries", st)
	}

	// Serving the prewarmed weights is all hits: the prewarm already paid
	// every compile.
	if _, err := a.MatMul(m, x); err != nil {
		t.Fatal(err)
	}
	st = a.Stats().Cache
	if st.Misses != 4 || st.Hits != 4 {
		t.Fatalf("prewarmed serve: %+v, want 4 misses (from prewarm), 4 hits", st)
	}

	// Now thrash: a second matrix wants 4 more slots in a 4-slot cache whose
	// every resident entry is pinned. The newcomers are the only evictable
	// entries (they evict themselves); the pinned set must stay resident.
	if _, err := a.MatMul(other, x); err != nil {
		t.Fatal(err)
	}
	st = a.Stats().Cache
	if st.Pinned != 4 {
		t.Fatalf("churn broke pins: %+v", st)
	}
	before := st.Misses
	if _, err := a.MatMul(m, x); err != nil {
		t.Fatal(err)
	}
	if st = a.Stats().Cache; st.Misses != before {
		t.Fatalf("pinned weights recompiled under churn: %+v", st)
	}
	churnEvictions := st.Evictions

	// Unpin: the entries drop back to LRU lifetime and the next insert
	// shrinks the cache to capacity again.
	if released := a.UnpinWeights(m); released != 4 {
		t.Fatalf("UnpinWeights released %d, want 4", released)
	}
	if st = a.Stats().Cache; st.Pinned != 0 {
		t.Fatalf("after unpin: %+v, want 0 pinned", st)
	}
	if _, err := a.MatMul(randMatrix(rng, 16, 16), x); err != nil {
		t.Fatal(err)
	}
	st = a.Stats().Cache
	if st.Evictions <= churnEvictions || st.Entries > 4 {
		t.Fatalf("after unpin + churn: %+v, want unpinned entries evicted and the cache back at capacity", st)
	}
}

// TestPrewarmWeightsBitwiseNeutral: prewarming is purely a cache fill — it
// must not change a single output bit or meter any energy. The 13×11 case
// is not block-aligned at block size 8: prewarm and the calls key the same
// implicitly padded blocks, so the calls after it compile nothing, and
// UnpinWeights releases exactly the pins PrewarmWeights took.
func TestPrewarmWeightsBitwiseNeutral(t *testing.T) {
	for _, tc := range []struct {
		name       string
		seed       int64
		rows, cols int
	}{
		{"aligned16x16", 22, 16, 16},
		{"ragged13x11", 25, 13, 11},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			m := randMatrix(rng, tc.rows, tc.cols)
			x := randMatrix(rng, tc.cols, 3)
			v := make([]float64, tc.cols)
			for i := range v {
				v[i] = rng.NormFloat64()
			}

			cold := newEngineAccel(t, 16, 8)
			wantMM, err := cold.MatMul(m, x)
			if err != nil {
				t.Fatal(err)
			}
			wantMV, err := cold.MatVec(m, v)
			if err != nil {
				t.Fatal(err)
			}

			warm := newEngineAccel(t, 16, 8)
			pinned, err := warm.PrewarmWeights(m)
			if err != nil {
				t.Fatal(err)
			}
			if blocks := ((tc.rows + 7) / 8) * ((tc.cols + 7) / 8); pinned != blocks {
				t.Fatalf("PrewarmWeights pinned %d, want one per block (%d)", pinned, blocks)
			}
			if e := warm.EnergyPJ(); e != 0 {
				t.Fatalf("prewarm metered %g pJ", e)
			}
			if p := warm.Stats().Programs; p != 0 {
				t.Fatalf("prewarm programmed %d partitions", p)
			}
			missesAfterPrewarm := warm.Stats().Cache.Misses

			gotMM, err := warm.MatMul(m, x)
			if err != nil {
				t.Fatal(err)
			}
			// MatVec lowers onto the same block programs, so the prewarm
			// covers the /v1/infer FC path too.
			gotMV, err := warm.MatVec(m, v)
			if err != nil {
				t.Fatal(err)
			}
			if st := warm.Stats().Cache; st.Misses != missesAfterPrewarm {
				t.Fatalf("prewarmed serving still compiled: %+v", st)
			}
			for i := range wantMM {
				for j := range wantMM[i] {
					if math.Float64bits(gotMM[i][j]) != math.Float64bits(wantMM[i][j]) {
						t.Fatalf("MatMul differs bitwise at (%d,%d) after prewarm", i, j)
					}
				}
			}
			for i := range wantMV {
				if math.Float64bits(gotMV[i]) != math.Float64bits(wantMV[i]) {
					t.Fatalf("MatVec differs bitwise at %d after prewarm", i)
				}
			}
			if released := warm.UnpinWeights(m); released != pinned {
				t.Fatalf("UnpinWeights released %d, PrewarmWeights took %d", released, pinned)
			}
			if st := warm.Stats().Cache; st.Pinned != 0 {
				t.Fatalf("after unpin: %+v, want 0 pinned", st)
			}
		})
	}
}

// TestCacheResizeDropsPins documents the registry's one caveat: resizing the
// program cache replaces it wholesale, so pins do not survive and a later
// unpin releases nothing.
func TestCacheResizeDropsPins(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := randMatrix(rng, 16, 16)

	a := newEngineAccel(t, 16, 8)
	if _, err := a.PrewarmWeights(m); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats().Cache; st.Pinned != 4 {
		t.Fatalf("prewarm pinned %d, want 4", st.Pinned)
	}
	a.SetProgramCacheSize(64)
	if st := a.Stats().Cache; st.Pinned != 0 {
		t.Fatalf("pins survived a cache resize: %+v", st)
	}
	if released := a.UnpinWeights(m); released != 0 {
		t.Fatalf("UnpinWeights released %d from a fresh cache, want 0", released)
	}
}

// TestPrewarmDisabledCacheIsNoop: with caching off there is nothing to pin.
func TestPrewarmDisabledCacheIsNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := newEngineAccel(t, 16, 8)
	a.SetProgramCacheSize(0)
	n, err := a.PrewarmWeights(randMatrix(rng, 16, 16))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("pinned %d programs with caching disabled", n)
	}
}

package chip

import (
	"math"
	"testing"

	"flumen/internal/noc"
)

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(1024, 2, 64) // 16 lines, 8 sets × 2 ways
	if c.Access(0) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0) {
		t.Fatal("second access missed")
	}
	if !c.Access(63) {
		t.Fatal("same-line access missed")
	}
	if c.Access(64) {
		t.Fatal("next-line access hit unexpectedly")
	}
	if c.Accesses != 4 || c.Misses != 2 {
		t.Fatalf("counters: %d accesses %d misses", c.Accesses, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(128, 2, 64) // 1 set × 2 ways
	c.Access(0)               // A
	c.Access(1 << 6)          // B
	c.Access(0)               // touch A → B is LRU
	c.Access(2 << 6)          // C evicts B
	if !c.Access(0) {
		t.Fatal("A evicted despite being MRU")
	}
	if !c.Access(2 << 6) {
		t.Fatal("C not resident")
	}
	if c.Access(1 << 6) {
		t.Fatal("B not evicted")
	}
	if c.Accesses != 7 || c.Misses != 4 {
		t.Fatalf("counters: %d accesses %d misses, want 7 and 4", c.Accesses, c.Misses)
	}
}

// TestCacheSetsHoldTheirWays fills every way of every set, and evicts one
// line per set: sets share no way, and each evicts its own LRU line.
func TestCacheSetsHoldTheirWays(t *testing.T) {
	c := NewCache(1024, 2, 64) // 8 sets × 2 ways: set s holds lines s and s+8
	for pass := 0; pass < 2; pass++ {
		for line := uint64(0); line < 16; line++ {
			c.Access(line << 6)
		}
	}
	if c.Misses != 16 {
		t.Fatalf("%d misses over two passes of 16 lines, want 16 (the second pass hits)", c.Misses)
	}
	for line := uint64(16); line < 24; line++ {
		c.Access(line << 6) // evicts line-16, the older of its set
	}
	for line := uint64(8); line < 16; line++ {
		if !c.Access(line << 6) {
			t.Fatalf("line %d evicted, though more recent than line %d", line, line-8)
		}
	}
	for line := uint64(0); line < 8; line++ {
		if c.Access(line << 6) {
			t.Fatalf("line %d still resident after its set took a third line", line)
		}
	}
}

func TestCacheGeometryValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { NewCache(0, 2, 64) },
		func() { NewCache(1024, 0, 64) },
		func() { NewCache(1024, 2, 48) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid geometry accepted")
				}
			}()
			bad()
		}()
	}
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Cores = 8
	cfg.Chiplets = 4
	cfg.MemControllers = []int{0, 3}
	cfg.MaxCycles = 10_000_000
	return cfg
}

func smallSystem(cfg Config) *System {
	return NewSystem(cfg, noc.NewMesh(2, 2, 320, 4))
}

func TestSystemRunsEmptyStreams(t *testing.T) {
	s := smallSystem(smallConfig())
	st := s.Run()
	if st.MACs != 0 {
		t.Fatal("phantom MACs")
	}
}

func TestSystemMACAccounting(t *testing.T) {
	s := smallSystem(smallConfig())
	s.SetStream(0, NewSliceStream([]Op{{Kind: KindMAC, N: 1000}}))
	st := s.Run()
	if st.MACs != 1000 {
		t.Fatalf("MACs = %d", st.MACs)
	}
	// 1000 MACs at CyclesPerMAC=2 need at least 2000 cycles.
	if st.Cycles < 2000 {
		t.Fatalf("cycles = %d, want ≥ 2000", st.Cycles)
	}
}

func TestSystemLoadBlockGeneratesTraffic(t *testing.T) {
	cfg := smallConfig()
	s := smallSystem(cfg)
	// Core 0 (chiplet 0) streams 256 lines; line homes are interleaved
	// across 4 chiplets, so ~3/4 of L2 misses cross the network.
	s.SetStream(0, NewSliceStream([]Op{{Kind: KindLoadBlock, Addr: 1 << 20, Lines: 256}}))
	st := s.Run()
	if st.L1dAccesses != 256 {
		t.Fatalf("L1d accesses = %d", st.L1dAccesses)
	}
	if st.L1dMisses != 256 {
		t.Fatalf("cold block should miss every line, got %d", st.L1dMisses)
	}
	if st.Net.InjectedPackets == 0 {
		t.Fatal("no network traffic for remote L3 homes")
	}
	if st.DRAMAccesses == 0 {
		t.Fatal("cold misses must reach DRAM")
	}
}

func TestSystemCacheReuseHitsLocally(t *testing.T) {
	cfg := smallConfig()
	s := smallSystem(cfg)
	// Two passes over a small block: second pass must hit in L1/L2.
	s.SetStream(0, NewSliceStream([]Op{
		{Kind: KindLoadBlock, Addr: 0x100000, Lines: 32},
		{Kind: KindLoadBlock, Addr: 0x100000, Lines: 32},
	}))
	st := s.Run()
	if st.L1dMisses != 32 {
		t.Fatalf("L1d misses = %d, want 32 (second pass hits)", st.L1dMisses)
	}
	if st.DRAMAccesses != 32 {
		t.Fatalf("DRAM accesses = %d, want 32", st.DRAMAccesses)
	}
}

func TestSystemBarrierSynchronizes(t *testing.T) {
	cfg := smallConfig()
	s := smallSystem(cfg)
	// Core 0 computes long, core 1 short; both barrier, then core 1 MACs.
	s.SetStream(0, NewSliceStream([]Op{
		{Kind: KindCompute, N: 5000},
		{Kind: KindBarrier},
	}))
	s.SetStream(1, NewSliceStream([]Op{
		{Kind: KindCompute, N: 10},
		{Kind: KindBarrier},
		{Kind: KindMAC, N: 4},
	}))
	st := s.Run()
	// Core 1's MAC happens after the barrier, so total time ≥ 5000.
	if st.Cycles < 5000 {
		t.Fatalf("cycles = %d; barrier did not hold core 1", st.Cycles)
	}
}

func TestSystemOffloadHandler(t *testing.T) {
	cfg := smallConfig()
	s := smallSystem(cfg)
	var handled int
	s.SetOffloadHandler(func(coreID int, job any, now int64, done func()) bool {
		handled++
		if job.(string) != "job" {
			t.Errorf("job payload %v", job)
		}
		s.ScheduleEvent(now+100, done)
		return true
	})
	s.SetStream(2, NewSliceStream([]Op{
		{Kind: KindOffload, Job: "job"},
		{Kind: KindMAC, N: 4},
	}))
	st := s.Run()
	if handled != 1 {
		t.Fatalf("handler invoked %d times", handled)
	}
	if st.OffloadsAccepted != 1 || st.OffloadsRequested != 1 {
		t.Fatalf("offload stats %+v", st)
	}
	if st.Cycles < 100 {
		t.Fatalf("core did not block on offload: %d cycles", st.Cycles)
	}
	if st.MACs != 4 {
		t.Fatal("post-offload op lost")
	}
}

func TestSystemOffloadRejectionContinues(t *testing.T) {
	cfg := smallConfig()
	s := smallSystem(cfg)
	s.SetOffloadHandler(func(int, any, int64, func()) bool { return false })
	s.SetStream(0, NewSliceStream([]Op{
		{Kind: KindOffload, Job: nil},
		{Kind: KindMAC, N: 8},
	}))
	st := s.Run()
	if st.OffloadsAccepted != 0 {
		t.Fatal("rejection counted as accept")
	}
	if st.MACs != 8 {
		t.Fatal("core stuck after rejection")
	}
}

func TestSystemOffloadWithoutHandlerPanics(t *testing.T) {
	s := smallSystem(smallConfig())
	s.SetStream(0, NewSliceStream([]Op{{Kind: KindOffload}}))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for offload without handler")
		}
	}()
	s.Run()
}

// TestSystemUtilizationSampling samples a run whose compute stretches the
// fast-forward jumps over: sampling moves no statistic, every window is
// sampled, and the samples add up to the link-busy cycles at the last
// window boundary, which one window covering the whole span measures.
func TestSystemUtilizationSampling(t *testing.T) {
	ops := []Op{
		{Kind: KindLoadBlock, Addr: 0, Lines: 512},
		{Kind: KindCompute, N: 1234},
		{Kind: KindLoadBlock, Addr: 1 << 20, Lines: 64},
		{Kind: KindCompute, N: 777},
	}
	run := func(window int64) (Stats, []float64) {
		cfg := smallConfig()
		cfg.UtilWindow = window
		s := smallSystem(cfg)
		s.SetStream(0, NewSliceStream(ops))
		return s.Run(), s.UtilizationSamples()
	}
	const window = 100
	st, samples := run(window)
	if unsampled, _ := run(0); st != unsampled {
		t.Fatalf("sampling moved the run:\n%+v\nwithout sampling:\n%+v", st, unsampled)
	}
	if want := st.Cycles / window; int64(len(samples)) != want {
		t.Fatalf("%d samples over %d cycles, want one per %d-cycle window: %d", len(samples), st.Cycles, window, want)
	}
	last := st.Cycles / window * window
	_, whole := run(last)
	if len(whole) != 1 {
		t.Fatalf("%d samples of one %d-cycle window", len(whole), last)
	}
	links := float64(st.Net.LinkCount)
	var sum float64
	for _, u := range samples {
		sum += u * window * links
	}
	if want := whole[0] * float64(last) * links; math.Abs(sum-want) > 1e-9*want {
		t.Fatalf("samples add up to %.3f link-busy cycles, %.3f by cycle %d", sum, want, last)
	}
	var peak float64
	for _, u := range samples {
		if u < 0 || u > 1 {
			t.Fatalf("utilization sample %g out of range", u)
		}
		if u > peak {
			peak = u
		}
	}
	if peak == 0 {
		t.Fatal("traffic produced zero utilization")
	}
}

func TestSystemAllCoresBusy(t *testing.T) {
	cfg := smallConfig()
	s := smallSystem(cfg)
	for c := 0; c < cfg.Cores; c++ {
		s.SetStream(c, NewSliceStream([]Op{
			{Kind: KindLoadBlock, Addr: uint64(c) << 24, Lines: 64},
			{Kind: KindMAC, N: 512},
		}))
	}
	st := s.Run()
	if st.MACs != int64(cfg.Cores)*512 {
		t.Fatalf("MACs = %d", st.MACs)
	}
	if st.L1dAccesses != int64(cfg.Cores)*64 {
		t.Fatalf("L1d accesses = %d", st.L1dAccesses)
	}
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Cores != 64 || cfg.Chiplets != 16 {
		t.Fatal("core/chiplet counts wrong")
	}
	if cfg.L1Bytes != 32<<10 || cfg.L2Bytes != 512<<10 {
		t.Fatal("cache sizes wrong")
	}
	// 16 MB L3 total = 1 MB per chiplet slice.
	if cfg.L3SliceBytes*cfg.Chiplets != 16<<20 {
		t.Fatal("L3 total size wrong")
	}
}

func TestFastForwardSkipsIdleTime(t *testing.T) {
	// A single long compute op should not require stepping every cycle;
	// this is a smoke test that Run finishes promptly.
	cfg := smallConfig()
	s := smallSystem(cfg)
	s.SetStream(0, NewSliceStream([]Op{{Kind: KindCompute, N: 5_000_000}}))
	st := s.Run()
	if st.Cycles < 5_000_000 {
		t.Fatalf("cycles = %d", st.Cycles)
	}
}

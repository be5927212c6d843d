package chip

import (
	"testing"

	"flumen/internal/noc"
)

func TestDRAMBandwidthLimitsThroughput(t *testing.T) {
	// Streaming far more lines than the channels can serve must take at
	// least lines × service-cycles / channels.
	cfg := smallConfig()
	cfg.DRAMServiceCycles = 8
	s := smallSystem(cfg)
	const lines = 2048
	s.SetStream(0, NewSliceStream([]Op{{Kind: KindLoadBlock, Addr: 1 << 22, Lines: lines}}))
	st := s.Run()
	minCycles := int64(lines) * cfg.DRAMServiceCycles / int64(len(cfg.MemControllers))
	if st.Cycles < minCycles {
		t.Fatalf("run finished in %d cycles, below the DRAM bandwidth floor %d", st.Cycles, minCycles)
	}
}

func TestDRAMBandwidthScalesWithService(t *testing.T) {
	run := func(service int64) int64 {
		cfg := smallConfig()
		cfg.DRAMServiceCycles = service
		s := smallSystem(cfg)
		s.SetStream(0, NewSliceStream([]Op{{Kind: KindLoadBlock, Addr: 1 << 22, Lines: 1024}}))
		return s.Run().Cycles
	}
	fast := run(1)
	slow := run(16)
	if slow <= fast {
		t.Fatalf("slower DRAM not slower: %d vs %d cycles", slow, fast)
	}
}

func TestStoresAreNonBlocking(t *testing.T) {
	// A large cold store block must complete in roughly Lines cycles (the
	// L1 throughput), not Lines × DRAM latency.
	cfg := smallConfig()
	s := smallSystem(cfg)
	const lines = 512
	s.SetStream(0, NewSliceStream([]Op{{Kind: KindStoreBlock, Addr: 1 << 23, Lines: lines}}))
	st := s.Run()
	if st.Cycles > 10*lines {
		t.Fatalf("stores appear to block: %d cycles for %d lines", st.Cycles, lines)
	}
	if st.DRAMAccesses != lines {
		t.Fatalf("write-back accounting: %d DRAM accesses, want %d", st.DRAMAccesses, lines)
	}
}

func TestStoreWriteCombining(t *testing.T) {
	// Rewriting the same block must not multiply write-back traffic.
	cfg := smallConfig()
	s := smallSystem(cfg)
	ops := []Op{
		{Kind: KindStoreBlock, Addr: 1 << 23, Lines: 32},
		{Kind: KindStoreBlock, Addr: 1 << 23, Lines: 32},
		{Kind: KindStoreBlock, Addr: 1 << 23, Lines: 32},
	}
	s.SetStream(0, NewSliceStream(ops))
	st := s.Run()
	if st.DRAMAccesses != 32 {
		t.Fatalf("write-combining broken: %d DRAM accesses for 3× the same 32 lines", st.DRAMAccesses)
	}
}

func TestLocalVsRemoteL3Latency(t *testing.T) {
	// Lines homed on the requester's own chiplet avoid the network and
	// complete faster than remote-homed lines (after warming L3 so DRAM
	// is out of the picture).
	run := func(addrStride uint64, base uint64) int64 {
		cfg := smallConfig()
		s := smallSystem(cfg)
		// Two passes: first warms L3; measure using total cycles anyway —
		// comparing like against like.
		var ops []Op
		for pass := 0; pass < 4; pass++ {
			for i := 0; i < 64; i++ {
				ops = append(ops, Op{Kind: KindLoadBlock, Addr: base + uint64(i)*addrStride, Lines: 1})
			}
		}
		s.SetStream(0, NewSliceStream(ops))
		return s.Run().Cycles
	}
	// Core 0 lives on chiplet 0 of 4; lines with (line % 4 == 0) are
	// local. Stride of 4 lines keeps every access local; stride 4 with
	// +1-line offset makes every access remote (home chiplet 1).
	local := run(4*64, 0)
	remote := run(4*64, 64)
	if local >= remote {
		t.Fatalf("local L3 (%d cycles) not faster than remote (%d cycles)", local, remote)
	}
}

func TestChargeDRAMAccounting(t *testing.T) {
	cfg := smallConfig()
	s := smallSystem(cfg)
	s.ChargeDRAM(17)
	st := s.Run()
	if st.DRAMAccesses != 17 {
		t.Fatalf("ChargeDRAM lost: %d", st.DRAMAccesses)
	}
}

func TestScheduleRecurringFires(t *testing.T) {
	cfg := smallConfig()
	s := smallSystem(cfg)
	var fired int
	s.ScheduleRecurring(100, func() { fired++ })
	s.SetStream(0, NewSliceStream([]Op{{Kind: KindCompute, N: 1000}}))
	s.Run()
	if fired < 9 || fired > 12 {
		t.Fatalf("recurring event fired %d times over ~1000 cycles at period 100", fired)
	}
}

func TestScheduleRecurringDoesNotKeepSimAlive(t *testing.T) {
	cfg := smallConfig()
	s := smallSystem(cfg)
	s.ScheduleRecurring(10, func() {})
	st := s.Run() // empty streams: must terminate immediately
	if st.Cycles > 10 {
		t.Fatalf("recurring event kept the simulation alive for %d cycles", st.Cycles)
	}
}

func TestScheduleRecurringValidation(t *testing.T) {
	s := smallSystem(smallConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive period accepted")
		}
	}()
	s.ScheduleRecurring(0, func() {})
}

func TestAddOpThroughput(t *testing.T) {
	cfg := smallConfig()
	s := smallSystem(cfg)
	s.SetStream(0, NewSliceStream([]Op{{Kind: KindAdd, N: 4000}}))
	st := s.Run()
	if st.Adds != 4000 {
		t.Fatalf("Adds = %d", st.Adds)
	}
	// 4 adds/cycle: ~1000 cycles, far less than MACs would cost (8000).
	if st.Cycles < 1000 || st.Cycles > 2000 {
		t.Fatalf("add throughput wrong: %d cycles for 4000 adds", st.Cycles)
	}
}

func TestCyclesPerMACConfig(t *testing.T) {
	run := func(cpm int64) int64 {
		cfg := smallConfig()
		cfg.CyclesPerMAC = cpm
		s := smallSystem(cfg)
		s.SetStream(0, NewSliceStream([]Op{{Kind: KindMAC, N: 1000}}))
		return s.Run().Cycles
	}
	if fast, slow := run(1), run(4); slow < 3*fast {
		t.Fatalf("CyclesPerMAC not honored: %d vs %d", fast, slow)
	}
}

func TestEventOrderingAcrossHeap(t *testing.T) {
	cfg := smallConfig()
	s := smallSystem(cfg)
	var order []int
	s.ScheduleEvent(300, func() { order = append(order, 3) })
	s.ScheduleEvent(100, func() { order = append(order, 1) })
	s.ScheduleEvent(200, func() { order = append(order, 2) })
	s.SetStream(0, NewSliceStream([]Op{{Kind: KindCompute, N: 400}}))
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("event order %v", order)
	}
}

// Guard against accidental import cycles in the test file.
var _ = noc.Packet{}

func TestStallAttribution(t *testing.T) {
	cfg := smallConfig()
	s := smallSystem(cfg)
	s.SetOffloadHandler(func(_ int, _ any, now int64, done func()) bool {
		s.ScheduleEvent(now+500, done)
		return true
	})
	s.SetStream(0, NewSliceStream([]Op{
		{Kind: KindLoadBlock, Addr: 1 << 22, Lines: 64}, // cold: memory stall
		{Kind: KindOffload, Job: "j"},                   // 500-cycle offload stall
	}))
	st := s.Run()
	if st.MemStallCycles <= 0 {
		t.Fatalf("no memory stall recorded: %+v", st)
	}
	if st.OffloadStallCycles < 450 || st.OffloadStallCycles > 600 {
		t.Fatalf("offload stall %d, want ≈500", st.OffloadStallCycles)
	}
}

// TestMemStallCountsFromTheFirstOutstandingLine pins the start of a memory
// stall: a core that computes for 10 000 cycles and then takes one cold
// 64-line load is stalled for the load, not for the whole run.
func TestMemStallCountsFromTheFirstOutstandingLine(t *testing.T) {
	load := []Op{{Kind: KindLoadBlock, Addr: 1 << 22, Lines: 64}}
	alone := smallSystem(smallConfig())
	alone.SetStream(0, NewSliceStream(load))
	loadCycles := alone.Run().Cycles

	s := smallSystem(smallConfig())
	s.SetStream(0, NewSliceStream(append([]Op{{Kind: KindCompute, N: 10_000}}, load...)))
	st := s.Run()
	if st.Cycles < 10_000+loadCycles/2 {
		t.Fatalf("run of %d cycles did not wait for a %d-cycle load", st.Cycles, loadCycles)
	}
	if st.MemStallCycles < loadCycles/2 || st.MemStallCycles > loadCycles {
		t.Fatalf("memory stall %d cycles after 10 000 cycles of compute, want about the load alone (%d cycles)",
			st.MemStallCycles, loadCycles)
	}
}

func TestSystemAccessors(t *testing.T) {
	cfg := smallConfig()
	s := smallSystem(cfg)
	if s.Network() == nil || s.Network().Nodes() != cfg.Chiplets {
		t.Fatal("Network accessor wrong")
	}
	if s.Config().Cores != cfg.Cores {
		t.Fatal("Config accessor wrong")
	}
	if s.Now() != 0 {
		t.Fatal("Now before Run should be 0")
	}
	s.Run()
	if s.Now() < 0 {
		t.Fatal("Now after Run negative")
	}
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Network returns the underlying NoP.
func (s *System) Network() noc.Network { return s.net }

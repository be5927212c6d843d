package core

import (
	"testing"

	"flumen/internal/chip"
	"flumen/internal/energy"
)

// multiBlockJob implements ComputeJob with Blocks > 1 (a VGG-style
// sequential kernel).
type multiBlockJob struct {
	n, blocks, vecs int
	tag             uint64
}

func (j multiBlockJob) BlockSize() int  { return j.n }
func (j multiBlockJob) NumBlocks() int  { return j.blocks }
func (j multiBlockJob) NumVectors() int { return j.vecs }
func (j multiBlockJob) Tag() uint64     { return j.tag }
func (j multiBlockJob) ResultVolumeBits() int {
	return j.blocks * j.vecs * j.n * 8
}
func (j multiBlockJob) FallbackMACs() int64 {
	return int64(j.blocks) * int64(j.vecs) * int64(j.n) * int64(j.n)
}

func runJobs(t *testing.T, params SchedulerParams, jobs ...any) (chip.Stats, ControlStats) {
	t.Helper()
	sys, net := newTestSystem()
	cu := NewControlUnit(sys, net, params, energy.Default())
	var ops []chip.Op
	for _, j := range jobs {
		ops = append(ops, chip.Op{Kind: chip.KindOffload, Job: j})
	}
	sys.SetStream(0, chip.NewSliceStream(ops))
	st := sys.Run()
	return st, cu.Stats()
}

func TestMultiBlockJobCountsAllPrograms(t *testing.T) {
	_, cs := runJobs(t, DefaultSchedulerParams(), multiBlockJob{n: 8, blocks: 64, vecs: 1, tag: 1})
	if cs.Granted != 1 {
		t.Fatalf("granted %d", cs.Granted)
	}
	if cs.Reprograms != 64 {
		t.Fatalf("reprograms %d, want one per block", cs.Reprograms)
	}
	if cs.VectorsStreamed != 64 {
		t.Fatalf("vectors %d", cs.VectorsStreamed)
	}
}

func TestMultiBlockEnergyScalesWithBlocks(t *testing.T) {
	_, one := runJobs(t, DefaultSchedulerParams(), multiBlockJob{n: 8, blocks: 1, vecs: 1, tag: 1})
	_, many := runJobs(t, DefaultSchedulerParams(), multiBlockJob{n: 8, blocks: 32, vecs: 1, tag: 1})
	if many.ComputePJ < 30*one.ComputePJ {
		t.Fatalf("32-block job energy %.1f not ≈32× the 1-block job %.1f", many.ComputePJ, one.ComputePJ)
	}
}

func TestPipelinedProgrammingShortensMultiBlockJobs(t *testing.T) {
	job := multiBlockJob{n: 8, blocks: 256, vecs: 1, tag: 1}
	pip := DefaultSchedulerParams()
	ser := DefaultSchedulerParams()
	ser.PipelinedProgramCycles = ser.ComputeProgramCycles
	stPip, _ := runJobs(t, pip, job)
	stSer, _ := runJobs(t, ser, job)
	// Serialized: ≥ 256 × 15 cycles; pipelined: ≈ 256 × 2.
	if stSer.Cycles < 256*15 {
		t.Fatalf("serialized run %d cycles, expected ≥ %d", stSer.Cycles, 256*15)
	}
	if stPip.Cycles*3 > stSer.Cycles {
		t.Fatalf("pipelining ineffective: %d vs %d cycles", stPip.Cycles, stSer.Cycles)
	}
}

func TestColdStartExposesProgramLatency(t *testing.T) {
	// Two same-size, different-tag jobs separated by a long compute gap:
	// the second arrives at an idle partition and pays the full program.
	sys, net := newTestSystem()
	cu := NewControlUnit(sys, net, DefaultSchedulerParams(), energy.Default())
	sys.SetStream(0, chip.NewSliceStream([]chip.Op{
		{Kind: chip.KindOffload, Job: testJob{n: 8, vecs: 1, tag: 1}},
		{Kind: chip.KindCompute, N: 500}, // partition goes idle (but keeps work pending? no — torn at τ)
		{Kind: chip.KindOffload, Job: testJob{n: 8, vecs: 1, tag: 2}},
	}))
	sys.Run()
	cs := cu.Stats()
	if cs.Reprograms != 2 {
		t.Fatalf("reprograms %d, want 2 (distinct tags)", cs.Reprograms)
	}
	if cs.Granted != 2 {
		t.Fatalf("granted %d", cs.Granted)
	}
}

func TestBetaSmoothingDecays(t *testing.T) {
	// With no traffic at all, the smoothed beta stays at zero and the
	// average is zero.
	sys, net := newTestSystem()
	cu := NewControlUnit(sys, net, DefaultSchedulerParams(), energy.Default())
	sys.SetStream(0, chip.NewSliceStream([]chip.Op{{Kind: chip.KindCompute, N: 2000}}))
	sys.Run()
	if cu.lastBeta != 0 {
		t.Fatalf("beta %g with no traffic", cu.lastBeta)
	}
	if st := cu.Stats(); st.BetaSum != 0 {
		t.Fatalf("beta sum %g over %d samples with no traffic", st.BetaSum, st.BetaSamples)
	}
}

func TestPortBudgetCapsConcurrentPartitions(t *testing.T) {
	// With an 8-port budget, two size-8 demands cannot coexist; jobs
	// still all complete through the single partition.
	params := DefaultSchedulerParams()
	params.MaxComputePorts = 8
	sys, net := newTestSystem()
	cu := NewControlUnit(sys, net, params, energy.Default())
	for c := 0; c < 4; c++ {
		jobs := make([]chip.Op, 10)
		for i := range jobs {
			jobs[i] = chip.Op{Kind: chip.KindOffload, Job: testJob{n: 8, vecs: 8, tag: uint64(c)}}
		}
		sys.SetStream(c, chip.NewSliceStream(jobs))
	}
	// Keep the system alive past the next τ boundary so the idle
	// partition is deconstructed (Sec 3.4).
	sys.SetStream(15, chip.NewSliceStream([]chip.Op{{Kind: chip.KindCompute, N: 4000}}))
	sys.Run()
	cs := cu.Stats()
	if cs.Granted != 40 {
		t.Fatalf("granted %d of 40", cs.Granted)
	}
	// Never more than one 8-port partition alive at once: creations can
	// exceed 1 over time (teardown/recreate) but ports must balance.
	if cs.PartitionsCreated != cs.PartitionsTorn {
		t.Fatalf("partition leak: created %d torn %d", cs.PartitionsCreated, cs.PartitionsTorn)
	}
}

func TestMixedSizeJobsGetSeparatePartitions(t *testing.T) {
	params := DefaultSchedulerParams() // 16-port budget
	sys, net := newTestSystem()
	cu := NewControlUnit(sys, net, params, energy.Default())
	jobs4 := make([]chip.Op, 12)
	for i := range jobs4 {
		jobs4[i] = chip.Op{Kind: chip.KindOffload, Job: testJob{n: 4, vecs: 8, tag: 10}}
	}
	jobs8 := make([]chip.Op, 12)
	for i := range jobs8 {
		jobs8[i] = chip.Op{Kind: chip.KindOffload, Job: testJob{n: 8, vecs: 8, tag: 20}}
	}
	sys.SetStream(0, chip.NewSliceStream(jobs4))
	sys.SetStream(1, chip.NewSliceStream(jobs8))
	st := sys.Run()
	cs := cu.Stats()
	if cs.Granted != 24 {
		t.Fatalf("granted %d of 24", cs.Granted)
	}
	if st.OffloadsAccepted != 24 {
		t.Fatalf("accepted %d", st.OffloadsAccepted)
	}
}

func TestHighEtaNeverBlocksPartitionCreation(t *testing.T) {
	params := DefaultSchedulerParams()
	params.Eta = 1.0 // β ≤ 1 always
	_, cs := runJobs(t, params, testJob{n: 8, vecs: 8, tag: 1})
	if cs.Granted != 1 {
		t.Fatalf("granted %d", cs.Granted)
	}
}

func TestZeroEtaStillCompletesEventually(t *testing.T) {
	// η = 0 admits partitions only when the smoothed β is exactly 0 —
	// which it is in an otherwise idle system, so jobs complete.
	params := DefaultSchedulerParams()
	params.Eta = 0
	st, cs := runJobs(t, params, testJob{n: 8, vecs: 8, tag: 1})
	if cs.Granted != 1 || st.OffloadsAccepted != 1 {
		t.Fatalf("granted=%d accepted=%d", cs.Granted, st.OffloadsAccepted)
	}
}

func TestPickRequestTagAffinityAndAging(t *testing.T) {
	sys, net := newTestSystem()
	cu := NewControlUnit(sys, net, DefaultSchedulerParams(), energy.Default())
	p := &partition{size: 8, hasTag: true, tag: 1}

	// Fresh requests: the tag match wins even though the other is older.
	cu.pending = []*request{
		{job: testJob{n: 8, vecs: 1, tag: 99}, at: 0},
		{job: testJob{n: 8, vecs: 1, tag: 1}, at: 0},
	}
	if got := cu.pickRequest(p); got != 1 {
		t.Fatalf("fresh: picked %d, want the tag match (1)", got)
	}

	// Aged non-matching request: once it has waited beyond 2τ, it
	// pre-empts the tag affinity (anti-starvation).
	cu.pending = []*request{
		{job: testJob{n: 8, vecs: 1, tag: 99}, at: -3 * cu.params.Tau},
		{job: testJob{n: 8, vecs: 1, tag: 1}, at: 0},
	}
	if got := cu.pickRequest(p); got != 0 {
		t.Fatalf("aged: picked %d, want the starved request (0)", got)
	}

	// Size filtering still applies.
	cu.pending = []*request{
		{job: testJob{n: 4, vecs: 1, tag: 1}, at: -10 * cu.params.Tau},
	}
	if got := cu.pickRequest(p); got != -1 {
		t.Fatalf("size filter: picked %d, want -1", got)
	}
}

package core

import (
	"testing"

	"flumen/internal/chip"
	"flumen/internal/energy"
	"flumen/internal/noc"
	"flumen/internal/workload"
)

// testJob implements ComputeJob.
type testJob struct {
	n    int
	vecs int
	tag  uint64
}

func (j testJob) BlockSize() int        { return j.n }
func (j testJob) NumBlocks() int        { return 1 }
func (j testJob) NumVectors() int       { return j.vecs }
func (j testJob) Tag() uint64           { return j.tag }
func (j testJob) ResultVolumeBits() int { return j.n * j.vecs * 8 }
func (j testJob) FallbackMACs() int64   { return int64(j.n * j.n * j.vecs) }

func newTestSystem() (*chip.System, *noc.MZIMNet) {
	cfg := chip.DefaultConfig()
	cfg.Cores = 16
	cfg.Chiplets = 16
	cfg.MemControllers = []int{0, 15}
	net := noc.NewMZIM(16, 256, 3)
	return chip.NewSystem(cfg, net), net
}

func offloadStream(jobs ...testJob) chip.Stream {
	var ops []chip.Op
	for _, j := range jobs {
		ops = append(ops, chip.Op{Kind: chip.KindOffload, Job: j})
	}
	return chip.NewSliceStream(ops)
}

func TestControlUnitGrantsAndCompletes(t *testing.T) {
	sys, net := newTestSystem()
	cu := NewControlUnit(sys, net, DefaultSchedulerParams(), energy.Default())
	sys.SetStream(0, offloadStream(testJob{n: 8, vecs: 8, tag: 1}))
	st := sys.Run()
	cs := cu.Stats()
	if cs.Requests != 1 || cs.Granted != 1 {
		t.Fatalf("stats %+v", cs)
	}
	if st.OffloadsAccepted != 1 {
		t.Fatalf("chip offload stats %+v", st)
	}
	if cs.ComputePJ <= 0 {
		t.Fatal("no compute energy charged")
	}
	if cs.PartitionsCreated < 1 {
		t.Fatal("no partition created")
	}
}

func TestControlUnitTagReuseSkipsReprogram(t *testing.T) {
	sys, net := newTestSystem()
	cu := NewControlUnit(sys, net, DefaultSchedulerParams(), energy.Default())
	jobs := make([]testJob, 10)
	for i := range jobs {
		jobs[i] = testJob{n: 8, vecs: 8, tag: 42}
	}
	sys.SetStream(0, offloadStream(jobs...))
	sys.Run()
	cs := cu.Stats()
	if cs.Granted != 10 {
		t.Fatalf("granted %d", cs.Granted)
	}
	if cs.Reprograms != 1 {
		t.Fatalf("reprograms %d, want 1 (phase reuse)", cs.Reprograms)
	}
	if cs.TagReuses != 9 {
		t.Fatalf("tag reuses %d, want 9", cs.TagReuses)
	}
}

func TestControlUnitDistinctTagsReprogram(t *testing.T) {
	sys, net := newTestSystem()
	cu := NewControlUnit(sys, net, DefaultSchedulerParams(), energy.Default())
	jobs := make([]testJob, 6)
	for i := range jobs {
		jobs[i] = testJob{n: 8, vecs: 1, tag: uint64(i)}
	}
	sys.SetStream(0, offloadStream(jobs...))
	sys.Run()
	cs := cu.Stats()
	if cs.Reprograms != 6 {
		t.Fatalf("reprograms %d, want 6 (no reuse)", cs.Reprograms)
	}
}

func TestControlUnitEnergyMatchesModel(t *testing.T) {
	sys, net := newTestSystem()
	ep := energy.Default()
	cu := NewControlUnit(sys, net, DefaultSchedulerParams(), ep)
	sys.SetStream(0, offloadStream(testJob{n: 8, vecs: 4, tag: 1}))
	sys.Run()
	want := ep.FlumenComputePJ(8, 4)
	got := cu.Stats().ComputePJ
	if got < want*0.99 || got > want*1.01 {
		t.Fatalf("compute energy %g, want %g", got, want)
	}
}

func TestControlUnitNodeSideRejection(t *testing.T) {
	sys, net := newTestSystem()
	params := DefaultSchedulerParams()
	params.RejectBeta = -1 // always "too utilized"
	cu := NewControlUnit(sys, net, params, energy.Default())
	// Pre-set lastBeta via a first evaluation: beta is 0, still > -1.
	sys.SetStream(0, offloadStream(testJob{n: 8, vecs: 8, tag: 1}))
	st := sys.Run()
	cs := cu.Stats()
	if cs.RejectedByNode != 1 {
		t.Fatalf("rejections %d", cs.RejectedByNode)
	}
	if st.OffloadsAccepted != 0 {
		t.Fatal("rejected offload counted as accepted")
	}
	// Fallback MACs executed locally.
	if st.MACs != 8*8*8 {
		t.Fatalf("fallback MACs %d", st.MACs)
	}
}

func TestControlUnitPartitionTeardownRestoresPorts(t *testing.T) {
	sys, net := newTestSystem()
	params := DefaultSchedulerParams()
	cu := NewControlUnit(sys, net, params, energy.Default())
	sys.SetStream(0, offloadStream(testJob{n: 8, vecs: 8, tag: 1}))
	// After the job completes plus a τ evaluation, the partition must be
	// deconstructed (Sec 3.4) and all withdrawn ports restored.
	sys.SetStream(1, chip.NewSliceStream([]chip.Op{{Kind: chip.KindCompute, N: 3000}}))
	sys.Run()
	cs := cu.Stats()
	if cs.PartitionsCreated != cs.PartitionsTorn {
		t.Fatalf("created %d torn %d", cs.PartitionsCreated, cs.PartitionsTorn)
	}
	if len(cu.freePorts) != net.Nodes() {
		t.Fatalf("%d ports free after teardown, want %d", len(cu.freePorts), net.Nodes())
	}
}

func TestControlUnitConcurrentSmallPartitions(t *testing.T) {
	sys, net := newTestSystem()
	params := DefaultSchedulerParams() // 8 compute ports → two 4-input partitions
	cu := NewControlUnit(sys, net, params, energy.Default())
	for c := 0; c < 8; c++ {
		jobs := make([]testJob, 20)
		for i := range jobs {
			jobs[i] = testJob{n: 4, vecs: 8, tag: uint64(c)}
		}
		sys.SetStream(c, offloadStream(jobs...))
	}
	sys.Run()
	cs := cu.Stats()
	if cs.Granted != 160 {
		t.Fatalf("granted %d", cs.Granted)
	}
	if cs.PartitionsCreated < 2 {
		t.Fatalf("expected ≥2 concurrent partitions, created %d", cs.PartitionsCreated)
	}
}

func TestControlUnitManyCoresThroughput(t *testing.T) {
	sys, net := newTestSystem()
	cu := NewControlUnit(sys, net, DefaultSchedulerParams(), energy.Default())
	for c := 0; c < 16; c++ {
		jobs := make([]testJob, 50)
		for i := range jobs {
			jobs[i] = testJob{n: 8, vecs: 8, tag: uint64(c % 4)}
		}
		sys.SetStream(c, offloadStream(jobs...))
	}
	st := sys.Run()
	cs := cu.Stats()
	if cs.Granted != 800 {
		t.Fatalf("granted %d of 800", cs.Granted)
	}
	// Tag reuse should be substantial with only four distinct tags.
	if cs.TagReuses < cs.Granted/2 {
		t.Fatalf("tag reuses %d of %d grants", cs.TagReuses, cs.Granted)
	}
	if st.Cycles <= 0 {
		t.Fatal("no cycles elapsed")
	}
}

func TestTopologyNamesAndBuilders(t *testing.T) {
	np := DefaultNetworkParams()
	for _, kind := range AllTopologies() {
		net := BuildNetwork(kind, np)
		if net.Nodes() != 16 {
			t.Fatalf("%v has %d nodes", kind, net.Nodes())
		}
	}
	if TopoRing.String() != "Ring" || TopoFlumenA.String() != "Flumen-A" {
		t.Fatal("topology names wrong")
	}
}

func TestNoPEnergyShapes(t *testing.T) {
	p := energy.Default()
	c := noc.Counters{BitHops: 1e6, PhotonicBits: 1e6}
	seconds := 1e-6
	ring := NoPEnergyPJ(TopoRing, c, seconds, 16, p, 0)
	mesh := NoPEnergyPJ(TopoMesh, c, seconds, 16, p, 0)
	optbus := NoPEnergyPJ(TopoOptBus, c, seconds, 16, p, 0)
	flumenI := NoPEnergyPJ(TopoFlumenI, c, seconds, 16, p, 0)
	flumenA := NoPEnergyPJ(TopoFlumenA, c, seconds, 16, p, 500)
	// Sec 5.2 orderings: ring is the most expensive electrical network;
	// Flumen-I slightly above OptBus (converters); Flumen-A above Flumen-I
	// (compute energy).
	if mesh >= ring {
		t.Fatalf("mesh %g not below ring %g", mesh, ring)
	}
	if flumenI <= optbus {
		t.Fatalf("Flumen-I %g should exceed OptBus %g (DAC/ADC static)", flumenI, optbus)
	}
	if flumenA != flumenI+500 {
		t.Fatalf("compute energy not added: %g vs %g", flumenA, flumenI)
	}
}

func TestSchedulerParamsValidation(t *testing.T) {
	sys, net := newTestSystem()
	bad := DefaultSchedulerParams()
	bad.Tau = 0
	defer func() {
		if recover() == nil {
			t.Fatal("invalid params accepted")
		}
	}()
	NewControlUnit(sys, net, bad, energy.Default())
}

// TestStallAttributionFitsTheRun runs the paper's benchmarks at 1/16 scale
// on every topology and holds the per-kind stall totals to the time there
// was: no core can be blocked for longer than the run.
func TestStallAttributionFitsTheRun(t *testing.T) {
	ccfg := chip.DefaultConfig()
	np := DefaultNetworkParams()
	for _, w := range workload.ScaledAll(16) {
		for _, kind := range AllTopologies() {
			net := BuildNetwork(kind, np)
			sys := chip.NewSystem(ccfg, net)
			streams := w.DigitalStreams(ccfg.Cores)
			if kind == TopoFlumenA {
				sp := DefaultSchedulerParams()
				NewControlUnit(sys, net.(*noc.MZIMNet), sp, energy.Default())
				streams = w.OffloadStreams(ccfg.Cores, 8, sp.ComputeLambdas)
			}
			for i, s := range streams {
				sys.SetStream(i, s)
			}
			st := sys.Run()
			if blocked, avail := st.MemStallCycles+st.OffloadStallCycles, int64(ccfg.Cores)*st.Cycles; blocked > avail {
				t.Errorf("%s on %s: %d memory + %d offload stall cycles in a run of %d cores × %d cycles",
					w.Name(), kind, st.MemStallCycles, st.OffloadStallCycles, ccfg.Cores, st.Cycles)
			}
		}
	}
}

// Package core implements the paper's primary contribution: the Flumen
// MZIM control unit (Fig. 8) and its scheduling algorithm (Algorithm 1),
// which dynamically partitions the photonic fabric between communication
// and computation. The control unit holds per-endpoint communication
// buffers (inside noc.MZIMNet), a compute request buffer, and partition
// state; the Partitioner creates compute partitions when buffer
// utilization β at scan depth ζ stays below threshold η, re-evaluated every
// τ cycles.
package core

import (
	"fmt"
	"slices"
	"sort"

	"flumen/internal/chip"
	"flumen/internal/energy"
	"flumen/internal/noc"
)

// ComputeJob is the contract for offload payloads (workload.MZIMJob
// satisfies it).
type ComputeJob interface {
	// BlockSize is the required partition size N.
	BlockSize() int
	// NumBlocks is the count of distinct matrices streamed in sequence
	// within the kernel request (1 = single reusable matrix).
	NumBlocks() int
	// NumVectors is the number of WDM-parallel input vectors per block.
	NumVectors() int
	// Tag identifies the block matrix for phase-reuse tracking (only
	// meaningful when NumBlocks() == 1).
	Tag() uint64
	// ResultVolumeBits is the many-to-one result return volume.
	ResultVolumeBits() int
	// FallbackMACs is the local-execution cost on rejection.
	FallbackMACs() int64
}

// SchedulerParams holds the Algorithm 1 knobs and compute-path timing.
type SchedulerParams struct {
	// Tau is the partition evaluation period in cycles (paper: 100).
	Tau int64
	// Eta is the buffer utilization threshold (paper: 0.40).
	Eta float64
	// Zeta is the buffer scan depth: the fraction of busiest buffers that
	// the utilization metric averages over (paper: 0.50).
	Zeta float64
	// MaxComputePorts caps the fabric ports compute may hold at once.
	MaxComputePorts int
	// CommProgramCycles is the MZI phase setup for communication patterns
	// (1 ns ≈ 3 cycles), paid when a partition reconfigures for its
	// many-to-one result return.
	CommProgramCycles int64
	// ComputeProgramCycles is the higher-accuracy compute phase setup
	// (6 ns ≈ 15 cycles), exposed when the partition pipeline is cold.
	ComputeProgramCycles int64
	// PipelinedProgramCycles is the effective per-matrix switch time when
	// phase programming is double-buffered from matrix memory behind the
	// previous block's streaming (the sample-and-hold DAC arrangement of
	// Sec 5.3). Setting it equal to ComputeProgramCycles disables the
	// pipelining (ablation).
	PipelinedProgramCycles int64
	// ComputeLambdas is the number of computation wavelengths (Table 1: 8).
	ComputeLambdas int
	// InputModGHz is the compute input modulation rate (Table 1: 5 GHz).
	InputModGHz float64
	// ClockGHz is the system clock.
	ClockGHz float64
	// PortWidthBits is the fabric port width for result transfers.
	PortWidthBits int
	// RejectBeta is the node-side utilization above which cores do not even
	// request compute access (Sec 3.4, last paragraph).
	RejectBeta float64
}

// DefaultSchedulerParams returns the paper's operating point.
func DefaultSchedulerParams() SchedulerParams {
	return SchedulerParams{
		Tau:  100,
		Eta:  0.40,
		Zeta: 0.50,
		// The partition barrier can sweep across the whole fabric when the
		// network is idle (Fig. 5's two-half split scaled to 16 ports);
		// the η check throttles partition creation under real traffic.
		MaxComputePorts:        16,
		CommProgramCycles:      3,
		ComputeProgramCycles:   15,
		PipelinedProgramCycles: 2,
		ComputeLambdas:         8,
		InputModGHz:            5,
		ClockGHz:               2.5,
		PortWidthBits:          256,
		// Requests are held in the compute buffer while utilization is high
		// (Algorithm 1), so with kernel-granularity requests the node-side
		// pre-rejection is disabled by default (a rejected kernel costs its
		// full local MAC count); sensitivity studies lower this threshold.
		RejectBeta: 1.5,
	}
}

// OccupancyCycles is how long a partition is busy streaming vectors input
// vectors through each of blocks programmed blocks and then returning
// resultBits of results through the fabric, not counting any exposed phase
// programming. Input vectors stream on the compute wavelengths at the input
// modulation rate. When the blocks are (re)programmed, the per-block phase
// switch is double-buffered, so the occupancy per block is the larger of
// its streaming time and the pipelined switch time. The block total rounds
// up to whole cycles; the result return takes whole port-width transfers.
func (sp SchedulerParams) OccupancyCycles(blocks, vectors, resultBits int, reprogram bool) int64 {
	slotsPerBlock := (vectors + sp.ComputeLambdas - 1) / sp.ComputeLambdas
	modCyclesPerSlot := sp.ClockGHz / sp.InputModGHz
	perBlock := float64(slotsPerBlock) * modCyclesPerSlot
	if reprogram && float64(sp.PipelinedProgramCycles) > perBlock {
		perBlock = float64(sp.PipelinedProgramCycles)
	}
	stream := int64(float64(blocks)*perBlock + 0.999)
	return stream + int64((resultBits+sp.PortWidthBits-1)/sp.PortWidthBits)
}

// ControlStats counts control-unit events.
type ControlStats struct {
	Requests          int64
	RejectedByNode    int64 // utilization too high; computed locally
	Granted           int64
	Reprograms        int64 // compute phase switches (6 ns each)
	TagReuses         int64 // batches served without reprogramming
	PartitionsCreated int64
	PartitionsTorn    int64
	ComputePJ         float64 // MZIM computation energy (Fig 12b model)
	ResultBits        int64   // photonic result-return traffic
	VectorsStreamed   int64
	BetaSamples       int64
	BetaSum           float64
}

// ControlUnit is the MZIM control unit of Fig. 8.
type ControlUnit struct {
	sys    *chip.System
	net    *noc.MZIMNet
	params SchedulerParams
	ep     energy.Params

	pending    []*request
	partitions []*partition
	freePorts  []int
	lastBeta   float64
	occ        []int // buffer occupancies, refilled at every β sample

	stats ControlStats
}

type request struct {
	core int
	job  ComputeJob
	done func()
	at   int64 // enqueue cycle, for anti-starvation aging
}

type partition struct {
	size             int
	ports            []int
	tag              uint64
	hasTag           bool
	busy             bool
	idleAt           int64 // cycle at which the partition last became idle
	returnConfigured bool  // many-to-one result path programmed
}

// NewControlUnit attaches a control unit to the system and its MZIM
// network, installs the offload handler, and starts the τ evaluation loop.
func NewControlUnit(sys *chip.System, net *noc.MZIMNet, params SchedulerParams, ep energy.Params) *ControlUnit {
	if params.Tau <= 0 || params.ComputeLambdas <= 0 || params.PortWidthBits <= 0 {
		panic(fmt.Sprintf("core: invalid scheduler params %+v", params))
	}
	cu := &ControlUnit{sys: sys, net: net, params: params, ep: ep}
	// Compute may take the highest-numbered ports first, mirroring the
	// partition barrier sweeping up from the bottom of Fig. 5.
	for p := net.Nodes() - 1; p >= 0; p-- {
		cu.freePorts = append(cu.freePorts, p)
	}
	sys.SetOffloadHandler(cu.handleOffload)
	sys.ScheduleRecurring(params.Tau, cu.evaluate)
	return cu
}

// Stats returns the accumulated control statistics.
func (cu *ControlUnit) Stats() ControlStats { return cu.stats }

// handleOffload is the chip.OffloadHandler: nodes consult the conveyed
// utilization before requesting (Sec 3.4); accepted requests join the
// compute buffer and are dispatched opportunistically.
func (cu *ControlUnit) handleOffload(coreID int, jobAny any, now int64, done func()) bool {
	cu.stats.Requests++
	job, ok := jobAny.(ComputeJob)
	if !ok {
		panic(fmt.Sprintf("core: offload payload %T does not implement ComputeJob", jobAny))
	}
	if cu.lastBeta > cu.params.RejectBeta {
		cu.stats.RejectedByNode++
		return false
	}
	req := &request{core: coreID, job: job, done: done, at: now}
	cu.pending = append(cu.pending, req)
	cu.dispatch()
	return true
}

// beta computes RegBuffUtil at scan depth ζ: the mean occupancy of the
// ⌈ζ·N⌉ busiest endpoint buffers relative to capacity. The scan depth
// prevents hot node pairs from being washed out by a global average
// (Sec 3.4).
func (cu *ControlUnit) beta() float64 {
	cu.occ = cu.net.BufferOccupancy(cu.occ)
	occ := cu.occ
	slices.Sort(occ)
	k := int(float64(len(occ))*cu.params.Zeta + 0.999)
	if k < 1 {
		k = 1
	}
	if k > len(occ) {
		k = len(occ)
	}
	var sum int
	for _, o := range occ[len(occ)-k:] {
		sum += o
	}
	return float64(sum) / float64(k*cu.net.BufferCapacity())
}

// evaluate is the τ-periodic Partitioner pass of Algorithm 1: tear down
// partitions that have gone idle, then create partitions for pending work
// when buffer utilization permits. The utilization conveyed back to the
// chiplets is smoothed over recent evaluation periods so a single bursty
// sample does not trigger wholesale local-compute fallbacks.
func (cu *ControlUnit) evaluate() {
	sample := cu.beta()
	b := 0.75*cu.lastBeta + 0.25*sample
	cu.lastBeta = b
	cu.stats.BetaSamples++
	cu.stats.BetaSum += b
	// done(a): remove idle partitions from A, return their wires to I.
	kept := cu.partitions[:0]
	for _, p := range cu.partitions {
		if !p.busy && !cu.hasWorkFor(p) {
			cu.releasePorts(p)
			cu.stats.PartitionsTorn++
			continue
		}
		kept = append(kept, p)
	}
	cu.partitions = kept
	// Partitioner: admit new compute partitions only when β ≤ η.
	if b <= cu.params.Eta {
		cu.createPartitions()
	}
	cu.dispatch()
}

func (cu *ControlUnit) hasWorkFor(p *partition) bool {
	for _, r := range cu.pending {
		if r.job.BlockSize() == p.size {
			return true
		}
	}
	return false
}

func (cu *ControlUnit) usedPorts() int {
	n := 0
	for _, p := range cu.partitions {
		n += len(p.ports)
	}
	return n
}

// createPartitions builds partitions sized for the pending requests, up to
// the compute port budget.
func (cu *ControlUnit) createPartitions() {
	sizes := map[int]int{} // size -> pending count
	for _, r := range cu.pending {
		sizes[r.job.BlockSize()]++
	}
	// Largest demand first.
	var order []int
	for s := range sizes {
		order = append(order, s)
	}
	sort.Slice(order, func(i, j int) bool { return sizes[order[i]] > sizes[order[j]] })
	for _, size := range order {
		for sizes[size] > cu.partitionCapacity(size) &&
			cu.usedPorts()+size <= cu.params.MaxComputePorts && len(cu.freePorts) >= size {
			cu.addPartition(size)
		}
	}
}

// partitionCapacity counts existing partitions of the given size.
func (cu *ControlUnit) partitionCapacity(size int) int {
	n := 0
	for _, p := range cu.partitions {
		if p.size == size {
			n++
		}
	}
	return n
}

func (cu *ControlUnit) addPartition(size int) {
	ports := cu.freePorts[:size]
	cu.freePorts = cu.freePorts[size:]
	for _, pt := range ports {
		cu.net.SetPortAvailable(pt, false)
	}
	p := &partition{size: size, ports: ports, idleAt: cu.sys.Now()}
	cu.partitions = append(cu.partitions, p)
	cu.stats.PartitionsCreated++
}

func (cu *ControlUnit) releasePorts(p *partition) {
	for _, pt := range p.ports {
		cu.net.SetPortAvailable(pt, true)
		cu.freePorts = append(cu.freePorts, pt)
	}
}

// dispatch assigns pending requests to idle partitions, preferring
// tag-matching assignments (phase reuse).
func (cu *ControlUnit) dispatch() {
	for _, p := range cu.partitions {
		if p.busy {
			continue
		}
		idx := cu.pickRequest(p)
		if idx < 0 {
			continue
		}
		req := cu.pending[idx]
		cu.pending = append(cu.pending[:idx], cu.pending[idx+1:]...)
		cu.serve(p, req)
	}
}

// pickRequest finds the best pending request for partition p: a matching
// tag if possible (phase reuse), otherwise the oldest request of the right
// size. Tag affinity yields to age: once the oldest compatible request has
// waited more than 2τ, it is served even if a tag-matching request exists,
// preventing a continuous same-tag stream from starving other kernels.
func (cu *ControlUnit) pickRequest(p *partition) int {
	oldest := -1
	match := -1
	for i, r := range cu.pending {
		if r.job.BlockSize() != p.size {
			continue
		}
		if match < 0 && p.hasTag && r.job.Tag() == p.tag {
			match = i
		}
		if oldest < 0 {
			oldest = i
		}
	}
	if match >= 0 {
		if oldest >= 0 && match != oldest &&
			cu.sys.Now()-cu.pending[oldest].at > 2*cu.params.Tau {
			return oldest
		}
		return match
	}
	return oldest
}

// serve executes one compute batch on a partition: optional phase
// reprogram, WDM vector streaming, and the many-to-one result return.
//
// Phase programming is prefetched from the control unit's matrix memory and
// double-buffered into the phase DACs (the sample-and-hold arrangement
// Sec 5.3 describes), so a reprogram's 6 ns latency is exposed only when
// the partition pipeline is cold — when the partition has sat idle since
// the previous batch. Back-to-back batches hide programming behind the
// previous batch's streaming and result return; the programming ENERGY is
// charged on every tag switch regardless.
func (cu *ControlUnit) serve(p *partition, req *request) {
	now := cu.sys.Now()
	job := req.job
	n := job.BlockSize()
	blocks := job.NumBlocks()
	var latency int64

	reprogram := blocks > 1 || !p.hasTag || p.tag != job.Tag()
	if reprogram {
		if !p.busy && p.idleAt < now {
			// Cold pipeline: the first block's DAC settle time is exposed.
			latency += cu.params.ComputeProgramCycles
		}
		cu.stats.Reprograms += int64(blocks)
		cu.stats.ComputePJ += float64(blocks) * cu.ep.FlumenProgramPJ(n)
		// Phase mappings stream from the control unit's matrix memory; the
		// backing line fetches keep DRAM traffic comparable to the digital
		// path's weight fetches (Sec 5.4.1: DRAM energy does not change
		// significantly). One byte per stored MZI phase pair.
		phaseBytes := blocks * n * n
		cu.sys.ChargeDRAM((phaseBytes + 63) / 64)
		p.tag = job.Tag()
		p.hasTag = blocks == 1
	} else {
		cu.stats.TagReuses++
	}
	if !p.returnConfigured {
		// Program the partition's many-to-one result return path once per
		// partition lifetime (communication phase setup, 1 ns).
		latency += cu.params.CommProgramCycles
		p.returnConfigured = true
	}
	latency += cu.params.OccupancyCycles(blocks, job.NumVectors(), job.ResultVolumeBits(), reprogram)
	cu.stats.ComputePJ += float64(blocks) * cu.ep.FlumenVectorsPJ(n, job.NumVectors())
	cu.stats.ResultBits += int64(job.ResultVolumeBits())
	cu.stats.VectorsStreamed += int64(blocks) * int64(job.NumVectors())
	cu.stats.Granted++

	p.busy = true
	cu.sys.ScheduleEvent(now+latency, func() {
		p.busy = false
		p.idleAt = cu.sys.Now()
		req.done()
		cu.dispatch()
	})
}

package flumen

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"flumen/internal/energy"
	"flumen/internal/optics"
	"flumen/internal/photonic"
	"flumen/internal/trace"
	"flumen/internal/wfp"
	"flumen/internal/workload"
)

// Accelerator performs matrix algebra on a simulated Flumen photonic
// fabric. Matrices are zero-padded and split into BlockSize×BlockSize
// sub-blocks (Eq. 2-3); each block is scaled by its spectral norm,
// decomposed via SVD, compiled with the Clements algorithm into the phase
// program of a mesh partition, and evaluated through the complex transfer
// matrix that program's lattice realizes (measured once by E-field
// propagation). Inputs and detected outputs pass through DAC/ADC
// quantizers, reproducing the paper's 8-bit equivalent analog precision.
//
// The fabric is carved into ports/blockSize independent compute
// partitions (the k/2 concurrent sub-meshes of Sec 3.2); MatMul/Conv2D
// dispatch block work items across them with a worker pool (see
// engine.go), and an LRU weight-program cache amortizes the SVD +
// Clements decomposition across calls that reuse the same weights.
// Operands stay real row-major [][]float64 from the caller to the DAC; the
// zero padding of Eq. 2 is implicit (entries past an edge read as 0).
type Accelerator struct {
	ports int
	// parts is the partition count; a partition is its index, 0 ≤ i < parts.
	parts int
	// pool hands out exclusive use of one partition (by index) per worker.
	pool chan int

	// mu guards the call-time configuration (quant, workers, cache, noise
	// switches); a consistent snapshot is taken at the top of each matMul.
	mu        sync.RWMutex
	quant     optics.Quantizer
	workers   int
	cache     *programCache
	noiseOn   bool
	noiseSeed int64

	// faults holds the per-partition runtime fault injectors (nil entries
	// = pristine device); replaced copy-on-write by InjectFaults so
	// call-time snapshots never see a torn slice.
	faults []*photonic.FaultInjector
	// health, when enabled, runs calibration probes between work items and
	// quarantines/recalibrates degraded partitions (see health.go).
	health *healthMonitor

	// noiseCall numbers the matMul calls of one noisy run so every call —
	// and every (block-row, block-col) item within it — draws from its own
	// deterministic noise stream regardless of worker scheduling.
	noiseCall atomic.Int64

	meter energy.Meter
	ep    energy.Params

	blockSize int
	lambdas   int
}

// NewAccelerator builds an accelerator over a `ports`-input Flumen mesh
// carved into ports/blockSize compute partitions. ports must be a positive
// multiple of 4; blockSize must be even, ≥2 and ≤ ports/2 (a partition's
// SVD layout needs blockSize mesh columns on each side of the attenuator
// column: the device model's partition rule).
func NewAccelerator(ports, blockSize int) (*Accelerator, error) {
	if ports < 4 || ports%4 != 0 {
		return nil, fmt.Errorf("flumen: ports must be a positive multiple of 4, got %d", ports)
	}
	if blockSize < 2 || blockSize%2 != 0 || blockSize > ports/2 {
		return nil, fmt.Errorf("flumen: block size %d must be even, ≥ 2 and ≤ ports/2 = %d", blockSize, ports/2)
	}
	parts := ports / blockSize
	a := &Accelerator{
		ports:     ports,
		parts:     parts,
		pool:      make(chan int, parts),
		faults:    make([]*photonic.FaultInjector, parts),
		quant:     optics.NewQuantizer(8, 1),
		workers:   parts,
		ep:        energy.Default(),
		blockSize: blockSize,
		lambdas:   8,
		cache:     newProgramCache(DefaultProgramCacheSize),
	}
	for i := 0; i < parts; i++ {
		a.pool <- i
	}
	return a, nil
}

// SetPrecision configures the DAC/ADC bit depth (default 8).
func (a *Accelerator) SetPrecision(bits int) {
	a.mu.Lock()
	a.quant = optics.NewQuantizer(bits, 1)
	a.mu.Unlock()
}

// EnableNoise turns on analog detection noise (laser RIN plus a thermal
// floor, per the Table 2 receiver model) with the given seed; seedless
// deterministic runs are the default. Pass the same seed to reproduce a
// noisy run exactly — reproducibility holds for any worker count because
// each work item derives its own noise stream from (seed, call, block).
func (a *Accelerator) EnableNoise(seed int64) {
	a.mu.Lock()
	a.noiseOn = true
	a.noiseSeed = seed
	a.mu.Unlock()
	a.noiseCall.Store(0)
}

// DisableNoise restores deterministic detection.
func (a *Accelerator) DisableNoise() {
	a.mu.Lock()
	a.noiseOn = false
	a.mu.Unlock()
}

// NumPartitions returns the number of independent compute partitions the
// fabric is carved into (ports/blockSize).
func (a *Accelerator) NumPartitions() int { return a.parts }

// SetWorkers sets the number of concurrent workers used by MatMul/Conv2D,
// clamped to [1, NumPartitions]. The default is NumPartitions. Noiseless
// results are bitwise-identical for every worker count.
func (a *Accelerator) SetWorkers(n int) {
	a.mu.Lock()
	if n < 1 {
		n = 1
	}
	if n > a.parts {
		n = a.parts
	}
	a.workers = n
	a.mu.Unlock()
}

// Workers returns the configured worker count.
func (a *Accelerator) Workers() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.workers
}

// SetProgramCacheSize resizes the weight-program cache to hold up to n
// compiled block programs (default DefaultProgramCacheSize). n ≤ 0
// disables caching. Resizing clears the cache and its statistics.
func (a *Accelerator) SetProgramCacheSize(n int) {
	a.mu.Lock()
	if n <= 0 {
		a.cache = nil
	} else {
		a.cache = newProgramCache(n)
	}
	a.mu.Unlock()
}

// KernelStats reports plan accounting. A plan is compiled with its weight
// program and lives and dies with it in the weight-program cache, so the
// counts are the cache's: Stats() derives them from Cache.
type KernelStats struct {
	// PlanCompiles counts plans compiled (Cache.Misses); PlanReuses counts
	// work items that ran a cached program's plan (Cache.Hits).
	PlanCompiles int64
	PlanReuses   int64
	// Fallbacks is always 0.
	//
	// Deprecated: no fallback exists; every work item runs a plan.
	Fallbacks int64
}

// EnergyPJ returns the accumulated photonic compute energy (Fig. 12b
// model).
func (a *Accelerator) EnergyPJ() float64 { return a.meter.EnergyPJ() }

// PrewarmWeights compiles every block program of weight matrix m — plan
// included — into the weight-program cache and pins the entries against
// LRU eviction. A later MatMul/MatVec/Conv2D against the same raw bits then
// pays no SVD + Clements decomposition on its first request: this is the
// model registry's warm-start hook. Returns the number of block programs
// pinned (a matrix whose blocks repeat pins the shared entry once per
// occurrence; UnpinWeights is exactly symmetric). With caching disabled
// the call is a no-op.
//
// Prewarming performs no physical programming and meters no energy: it
// fills the compilation cache, it does not touch the fabric.
func (a *Accelerator) PrewarmWeights(m [][]float64) (int, error) {
	if err := checkMatrix(m); err != nil {
		return 0, err
	}
	a.mu.RLock()
	cache := a.cache
	a.mu.RUnlock()
	if cache == nil {
		return 0, nil
	}
	bi, bj := a.blocks(m)
	pinned := 0
	var s blockScratch
	for c := 0; c < bj; c++ {
		for r := 0; r < bi; r++ {
			if _, err := a.programFor(m, r, c, cache, &s); err != nil {
				return pinned, err
			}
			if cache.pin(s.key) {
				pinned++
			}
		}
	}
	return pinned, nil
}

// UnpinWeights releases the pins PrewarmWeights took for matrix m (one per
// block occurrence), returning the entries to normal LRU lifetime. Reports
// how many pins were released; weights that were never prewarmed — or a
// cache that has since been resized, which drops all pins — release zero.
func (a *Accelerator) UnpinWeights(m [][]float64) int {
	if checkMatrix(m) != nil {
		return 0
	}
	a.mu.RLock()
	cache := a.cache
	a.mu.RUnlock()
	if cache == nil {
		return 0
	}
	bi, bj := a.blocks(m)
	released := 0
	var key []byte
	for c := 0; c < bj; c++ {
		for r := 0; r < bi; r++ {
			key = wfp.AppendBlock(key[:0], m, a.blockSize, r, c)
			if cache.unpin(key) {
				released++
			}
		}
	}
	return released
}

// Stats is a read-only snapshot of the accelerator's observable state:
// fabric geometry, engine configuration, accumulated work counters, and
// weight-program cache effectiveness. It is safe to take concurrently with
// compute calls; counters reflect work merged so far.
type Stats struct {
	// Ports is the fabric port count; BlockSize the compute partition size.
	Ports     int
	BlockSize int
	// Partitions is the number of independent compute partitions; Workers
	// the configured dispatch concurrency.
	Partitions int
	Workers    int
	// Precision is the DAC/ADC bit depth.
	Precision int
	// EnergyPJ is the accumulated photonic compute energy; Programs and
	// Batches are the phase-programming and λ-batch counts.
	EnergyPJ float64
	Programs int64
	Batches  int64
	// Cache reports weight-program cache hit/miss/eviction counts (zero
	// value when caching is disabled).
	Cache CacheStats
	// Kernel reports plan compiles and reuses, derived from Cache.
	Kernel KernelStats
	// Health is the device-health subsystem snapshot (nil when the monitor
	// was never enabled).
	Health *HealthStats
}

// Stats returns a consistent read-only snapshot of geometry, configuration,
// work counters and cache statistics, so observers (e.g. a serving layer's
// /metrics endpoint) never reach into accelerator internals.
func (a *Accelerator) Stats() Stats {
	a.mu.RLock()
	s := Stats{
		Ports:      a.ports,
		BlockSize:  a.blockSize,
		Partitions: a.parts,
		Workers:    a.workers,
		Precision:  a.quant.Bits,
	}
	c := a.cache
	hm := a.health
	faults := a.faults
	a.mu.RUnlock()
	s.EnergyPJ = a.meter.EnergyPJ()
	s.Programs, s.Batches = a.meter.Counts()
	if c != nil {
		s.Cache = c.stats()
		s.Kernel = KernelStats{PlanCompiles: s.Cache.Misses, PlanReuses: s.Cache.Hits}
	}
	if hm != nil {
		hs := hm.snapshot(faults)
		s.Health = &hs
	}
	return s
}

// MatVec computes y = M·x photonically. M is row-major.
func (a *Accelerator) MatVec(m [][]float64, x []float64) ([]float64, error) {
	return a.MatVecCtx(context.Background(), m, x)
}

// MatVecCtx is MatVec with cooperative cancellation: when ctx is cancelled
// or its deadline passes, dispatch stops before the remaining block work
// items run and the context's error is returned.
func (a *Accelerator) MatVecCtx(ctx context.Context, m [][]float64, x []float64) ([]float64, error) {
	if err := checkMatrix(m); err != nil {
		return nil, err
	}
	if len(m[0]) != len(x) {
		return nil, fmt.Errorf("flumen: MatVec dimension mismatch: %d×%d · %d", len(m), len(m[0]), len(x))
	}
	// x as a one-column matrix: each row a view of one element.
	col := make([][]float64, len(x))
	for i := range x {
		col[i] = x[i : i+1 : i+1]
	}
	out, err := a.matMulCtx(ctx, m, col)
	if err != nil {
		return nil, err
	}
	return out[:len(m):len(m)], nil
}

// MatMul computes C = M·X photonically, batching up to 8 columns of X per
// programmed block (the WDM-parallel MVMs of Sec 3.3.1). Block work items
// run across the partition pool; see engine.go for the dispatch and
// determinism story.
func (a *Accelerator) MatMul(m, x [][]float64) ([][]float64, error) {
	return a.MatMulCtx(context.Background(), m, x)
}

// MatMulCtx is MatMul with cooperative cancellation: when ctx is cancelled
// or its deadline passes, dispatch stops before the remaining block work
// items run and the context's error is returned. A call that arrives with
// an already-cancelled context performs no work at all. Each right-hand-side
// column's result is independent of every other column, so concatenating
// the column sets of several calls that share M into one MatMulCtx yields
// bitwise-identical per-column results (the property the serving layer's
// batcher relies on).
func (a *Accelerator) MatMulCtx(ctx context.Context, m, x [][]float64) ([][]float64, error) {
	if err := checkMatrix(m); err != nil {
		return nil, err
	}
	rows, inner := len(m), len(m[0])
	if len(x) != inner {
		return nil, fmt.Errorf("flumen: MatMul dimension mismatch: %d×%d · %d×%d", rows, inner, len(x), colsOf(x))
	}
	if err := checkShape(x); err != nil {
		return nil, err
	}
	nrhs := len(x[0])
	out, err := a.matMulCtx(ctx, m, x)
	if err != nil {
		return nil, err
	}
	// Truncate padding: each result row is a view of out.
	result := make([][]float64, rows)
	for i := range result {
		result[i] = out[i*nrhs : (i+1)*nrhs : (i+1)*nrhs]
	}
	return result, nil
}

// Conv2D convolves a stack of input channels with a set of kernels on the
// photonic fabric, using the im2col lowering of Fig. 7: the kernel matrix
// is programmed into mesh partitions block by block and every receptive
// field streams through as an optical input vector. Because the kernel
// matrix is identical across calls, its block programs hit the weight
// cache and repeated convolutions skip the SVD + Clements decomposition.
//
// input is indexed [channel][y][x]; kernels is indexed
// [kernel][channel][ky][kx]. The result is indexed [kernel][y][x] with
// dimensions determined by stride and pad.
func (a *Accelerator) Conv2D(input [][][]float64, kernels [][][][]float64, stride, pad int) ([][][]float64, error) {
	return a.Conv2DCtx(context.Background(), input, kernels, stride, pad)
}

// Conv2DCtx is Conv2D with cooperative cancellation: when ctx is cancelled
// or its deadline passes, dispatch stops before the remaining block work
// items run and the context's error is returned.
func (a *Accelerator) Conv2DCtx(ctx context.Context, input [][][]float64, kernels [][][][]float64, stride, pad int) ([][][]float64, error) {
	if len(input) == 0 || len(kernels) == 0 {
		return nil, fmt.Errorf("flumen: Conv2D needs input channels and kernels, got %d and %d", len(input), len(kernels))
	}
	var kplanes [][][]float64
	for k, kern := range kernels {
		if len(kern) != len(input) {
			return nil, fmt.Errorf("flumen: Conv2D kernel %d has %d channels, input has %d", k, len(kern), len(input))
		}
		kplanes = append(kplanes, kern...)
	}
	if err := checkPlanes(input, checkShape); err != nil {
		return nil, fmt.Errorf("flumen: Conv2D input: %w", err)
	}
	if err := checkPlanes(kplanes, checkMatrix); err != nil {
		return nil, fmt.Errorf("flumen: Conv2D kernels: %w", err)
	}
	shape := workload.ConvShape{
		InW: len(input[0][0]), InH: len(input[0]), InC: len(input),
		KH: len(kernels[0][0]), KW: len(kernels[0][0][0]),
		NumKernels: len(kernels), Stride: stride, Pad: pad,
	}
	if stride <= 0 || pad < 0 || shape.OutW() <= 0 || shape.OutH() <= 0 {
		return nil, fmt.Errorf("flumen: Conv2D %d×%d kernel at stride %d pad %d leaves no output on a %d×%d input",
			shape.KW, shape.KH, stride, pad, shape.InW, shape.InH)
	}
	// The CPU-side im2col lowering (volume packing, kernel ravel, patch
	// extraction) is real per-request work a latency breakdown must not
	// lose; for traced requests it books under the compute stage alongside
	// the photonic propagation it feeds.
	lowerStart := time.Now()
	vol := workload.NewVolume(shape.InW, shape.InH, shape.InC)
	for c := range input {
		for y := range input[c] {
			for x := range input[c][y] {
				vol.Set(x, y, c, input[c][y][x])
			}
		}
	}
	ravel := make([][]float64, shape.NumKernels)
	for k := range kernels {
		ravel[k] = make([]float64, 0, shape.PatchLen())
		for c := 0; c < shape.InC; c++ {
			for ky := 0; ky < shape.KH; ky++ {
				for kx := 0; kx < shape.KW; kx++ {
					ravel[k] = append(ravel[k], kernels[k][c][ky][kx])
				}
			}
		}
	}
	cols := workload.Im2Col(shape, vol)
	if rec := trace.FromContext(ctx); rec != nil {
		rec.Add(trace.StageCompute, time.Since(lowerStart))
	}
	prod, err := a.matMulCtx(ctx, ravel, cols)
	if err != nil {
		return nil, err
	}
	out := make([][][]float64, shape.NumKernels)
	for k := range out {
		out[k] = make([][]float64, shape.OutH())
		for y := range out[k] {
			out[k][y] = make([]float64, shape.OutW())
			for x := range out[k][y] {
				out[k][y][x] = prod[k*shape.Patches()+y*shape.OutW()+x]
			}
		}
	}
	return out, nil
}

func colsOf(m [][]float64) int {
	if len(m) == 0 {
		return 0
	}
	return len(m[0])
}

// checkShape is the check every entry point that takes a row-major matrix
// runs before touching it: non-empty and rectangular.
func checkShape(m [][]float64) error {
	if len(m) == 0 || len(m[0]) == 0 {
		return fmt.Errorf("flumen: empty matrix")
	}
	for i, row := range m {
		if len(row) != len(m[0]) {
			return fmt.Errorf("flumen: ragged matrix: row %d has %d columns, row 0 has %d", i, len(row), len(m[0]))
		}
	}
	return nil
}

// checkMatrix vets a weight matrix: checkShape, and every entry finite. A
// NaN or infinite weight has no photonic program. (Inputs may be non-finite:
// a vector never mixes with another, so it spoils only its own column.)
func checkMatrix(m [][]float64) error {
	if err := checkShape(m); err != nil {
		return err
	}
	for i, row := range m {
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("flumen: weight (%d,%d) is %v, not a finite number", i, j, v)
			}
		}
	}
	return nil
}

// checkPlanes checks a stack of planes (input channels with checkShape, or
// every kernel's channels with checkMatrix): each a valid matrix, all of
// plane 0's shape.
func checkPlanes(planes [][][]float64, check func([][]float64) error) error {
	for i, p := range planes {
		if err := check(p); err != nil {
			return fmt.Errorf("plane %d: %w", i, err)
		}
		if len(p) != len(planes[0]) || len(p[0]) != len(planes[0][0]) {
			return fmt.Errorf("plane %d is %d×%d, plane 0 is %d×%d", i, len(p), len(p[0]), len(planes[0]), len(planes[0][0]))
		}
	}
	return nil
}

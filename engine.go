package flumen

import (
	"container/list"
	"context"
	"math"
	"math/rand"
	"sync"
	"time"

	"flumen/internal/mat"
	"flumen/internal/optics"
	"flumen/internal/photonic"
	"flumen/internal/trace"
	"flumen/internal/wfp"
)

// This file is the accelerator's parallel compute engine. A matrix-matrix
// product, zero-padded to block multiples (Eq. 2), decomposes into
// (block-row, block-col) work items.
// The right-hand side passes the DAC once per call; each item then fetches
// (or compiles into the weight-program cache) its block's SVD + Clements
// program, multiplies its block column's modulated vectors by the real
// part of the program's transfer matrix, and detects the result straight
// into the output. The lattice is linear and noise enters only at
// detection, so the transfer matrix — measured once at compile by
// propagating the identity through the program's plan — is the block's
// whole effect on any input, and since the inputs are real and only the
// real part of each output is read, the real part of T·x is all an item
// computes (DESIGN §3c; detect states why that is exact).
//
// A partition is an index: the engine's unit of capacity (the checkout
// pool), of fault injection and of health. The engine executes the program
// and writes its phases into no device partition. The equivalence physical
// partition ≡ program ≡ plan is pinned in internal/photonic, and each item
// is still charged the phase-programming energy (DESIGN §3c).
//
// Determinism guarantees:
//   - Worker g owns block rows g, g+workers, … and walks block columns in
//     ascending order, so every output element is accumulated by one worker
//     in the serial path's order. Combined with the partition-independent
//     BlockProgram propagation, noiseless outputs are bitwise-identical for
//     every worker count.
//   - Noise draws come from a per-item stream seeded by
//     (noiseSeed, call number, block row, block col), so EnableNoise(seed)
//     reproduces a run exactly regardless of scheduling.
//   - An item's energy and λ-batch count depend on the call's shape alone;
//     they are charged item by item after the last worker returns, so the
//     mutex-guarded Meter's totals are exact under concurrency.

// DefaultProgramCacheSize is the default capacity (in compiled block
// programs) of the weight-program cache.
const DefaultProgramCacheSize = 256

// callConfig is the immutable per-call snapshot of the accelerator's
// tunable state, taken once so concurrent setter calls cannot tear a
// matMul in progress.
type callConfig struct {
	dac       optics.Quantizer
	adc       optics.Quantizer
	workers   int
	noiseOn   bool
	noiseSeed int64
	noiseCall int64
	lambdas   int
	cache     *programCache
	// faults and health are the device-health snapshot: per-partition
	// fault injectors corrupt each executed program, and the monitor (when
	// enabled) probes and quarantines between items (see health.go).
	faults []*photonic.FaultInjector
	health *healthMonitor
	// rec receives lease-wait, compute, dac, propagate and detect stage
	// durations for a traced request. Resolved once per call from the
	// context (nil for untraced calls, which then pay nil checks only); the
	// workers' adds are atomic, so concurrent partition stripes may record
	// into one recorder.
	rec trace.Recorder
}

// injector returns the fault injector of partition idx, or nil.
func (cfg *callConfig) injector(idx int) *photonic.FaultInjector {
	if idx < 0 || idx >= len(cfg.faults) {
		return nil
	}
	return cfg.faults[idx]
}

// modulated is a call's right-hand side after the DAC: for every block
// column c and vector v, the n real inputs scaled into the modulator's
// full-scale range and quantized (states[(c*nrhs+v)*n:][:n]) and the scale
// that was divided out (scales[c*nrhs+v]; 0 marks a dark vector, which is
// never detected). Workers only read it.
type modulated struct {
	nrhs   int
	states []float64
	scales []float64
}

// modulate is the call's one DAC stage, reading the right-hand side x
// (row-major, one column per vector) in place. The slab is a pure function
// of x and the quantizer, so the bj·bi items share it instead of each
// re-converting its block column.
func (a *Accelerator) modulate(x [][]float64, bj int, dac optics.Quantizer) *modulated {
	n, nrhs := a.blockSize, len(x[0])
	in := &modulated{nrhs: nrhs, states: make([]float64, bj*nrhs*n), scales: make([]float64, bj*nrhs)}
	for c := 0; c < bj; c++ {
		rows := min(n, len(x)-c*n) // the last block column may be zero-padded
		for v := 0; v < nrhs; v++ {
			seg := in.states[(c*nrhs+v)*n:][:n]
			var scale float64 // the largest |x|; NaN entries never win
			for i := 0; i < rows; i++ {
				seg[i] = x[c*n+i][v]
				if a := math.Abs(seg[i]); a > scale {
					scale = a
				}
			}
			in.scales[c*nrhs+v] = scale
			if scale == 0 {
				// Dark (or all-NaN) vector: its slab still rides through the
				// item's product — vectors are isolated, so nothing leaks
				// into a neighbour — but it is never detected.
				clear(seg)
				continue
			}
			for i := range seg {
				seg[i] /= scale
			}
			dac.QuantizeVec(seg)
		}
	}
	return in
}

// workerScratch holds one worker's reusable buffers: the real fields its
// current item detects, the transfer matrix a faulted item measures and its
// real part (both allocated on the first one) and the storage of its
// program lookups.
type workerScratch struct {
	fields   []float64
	measured []complex128
	faulted  []float64
	blockScratch
}

// blockScratch is the reusable storage of programFor: the wfp key of the
// block being looked up and, on a miss, the complex block handed to the
// compiler (allocated on the first miss).
type blockScratch struct {
	key   []byte
	block *mat.Dense
}

// blocks returns the block grid of m zero-padded to the block size (Eq. 2):
// ⌈rows/n⌉ block rows and ⌈cols/n⌉ block columns.
func (a *Accelerator) blocks(m [][]float64) (bi, bj int) {
	n := a.blockSize
	return (len(m) + n - 1) / n, (len(m[0]) + n - 1) / n
}

// matMulCtx computes the product m·x across the partition pool and returns
// it row-major with len(x[0]) columns and m's row count padded to a block
// multiple (callers truncate). Both operands are read in place during the
// call and never written. Cancellation is cooperative: the context is
// checked before each partition checkout and before every work item, so a
// cancelled call abandons its remaining items (and never starts any when
// the context arrives already cancelled). Partitions checked out before
// cancellation are always returned to the pool; a cancelled call
// contributes nothing to the energy meter.
func (a *Accelerator) matMulCtx(ctx context.Context, m, x [][]float64) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := a.blockSize
	bi, bj := a.blocks(m)
	nrhs := len(x[0])

	a.mu.RLock()
	cfg := callConfig{
		dac:       a.quant,
		workers:   a.workers,
		noiseOn:   a.noiseOn,
		noiseSeed: a.noiseSeed,
		lambdas:   a.lambdas,
		cache:     a.cache,
		faults:    a.faults,
		health:    a.health,
	}
	a.mu.RUnlock()
	// ADC full scale: a unit-spectral-norm block driven by |x|∞ ≤ 1 inputs
	// can emit field amplitudes up to √n. Built once per call — it is
	// invariant across blocks and columns.
	cfg.adc = optics.NewQuantizer(cfg.dac.Bits, math.Sqrt(float64(n)))
	if cfg.noiseOn {
		cfg.noiseCall = a.noiseCall.Add(1)
	}
	cfg.rec = trace.FromContext(ctx)

	// The DAC pass is per-request CPU work like the conv lowering; for
	// traced calls it books under dac and the compute stage it feeds.
	var dacStart time.Time
	if cfg.rec != nil {
		dacStart = time.Now()
	}
	in := a.modulate(x, bj, cfg.dac)
	if cfg.rec != nil {
		d := time.Since(dacStart)
		cfg.rec.Add(trace.StageDAC, d)
		cfg.rec.Add(trace.StageCompute, d)
	}

	out := make([]float64, bi*n*nrhs)
	workers := min(cfg.workers, bi)
	if workers <= 1 {
		if err := a.runRows(ctx, 0, 1, m, in, out, &cfg); err != nil {
			return nil, err
		}
	} else {
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				errs[g] = a.runRows(ctx, g, workers, m, in, out, &cfg)
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}

	// Every item programs one block and streams the same nrhs vectors in λ
	// batches. Summing item by item (not multiplying) keeps the float total
	// the one the serial path accumulates.
	itemPJ := a.ep.FlumenProgramPJ(n)
	var vectorPJ float64
	var itemBatches int64
	for v0 := 0; v0 < nrhs; v0 += cfg.lambdas {
		vectorPJ += a.ep.FlumenVectorsPJ(n, min(cfg.lambdas, nrhs-v0))
		itemBatches++
	}
	itemPJ += vectorPJ
	items := int64(bi * bj)
	var pj float64
	for i := int64(0); i < items; i++ {
		pj += itemPJ
	}
	a.meter.Add(pj, items, items*itemBatches)
	return out, nil
}

// checkout takes a partition from the pool, giving up as soon as the
// context is cancelled so callers never block on capacity drained by work
// they no longer want.
func (a *Accelerator) checkout(ctx context.Context, cfg *callConfig) (int, error) {
	if cfg.rec != nil {
		// Lease-wait is the partition-contention signal: time from asking
		// the pool for a partition to holding one.
		start := time.Now()
		defer func() { cfg.rec.Add(trace.StageLeaseWait, time.Since(start)) }()
	}
	// Fast path: a cancelled context always loses, even when a partition is
	// simultaneously available (select would pick at random).
	if err := ctx.Err(); err != nil {
		return -1, err
	}
	select {
	case part := <-a.pool:
		return part, nil
	case <-ctx.Done():
		return -1, ctx.Err()
	}
}

// checkin returns checked-out partition part to the pool — unless the
// health monitor quarantined it while it was held, in which case the
// monitor parks it and starts background recalibration. A negative part
// (none held) is a no-op.
func (a *Accelerator) checkin(part int) {
	if part < 0 {
		return
	}
	if hm := a.healthRef(); hm != nil && hm.parkIfQuarantined(a, part) {
		return
	}
	a.pool <- part
}

// runRows executes one worker's work items — block rows g, g+workers, … of
// every block column, columns ascending. Results stay bitwise-identical to
// the serial path because the rows of out a worker accumulates into are its
// alone, it visits their items in the serial order, and a compiled block
// program propagates independently of the partition that runs it.
func (a *Accelerator) runRows(ctx context.Context, g, workers int, m [][]float64, in *modulated, out []float64, cfg *callConfig) error {
	n := a.blockSize
	bi, bj := a.blocks(m)
	part := -1
	var err error
	defer func() { a.checkin(part) }()
	scratch := &workerScratch{
		fields:       make([]float64, in.nrhs*n),
		blockScratch: blockScratch{key: make([]byte, 0, 16+8*n*n)},
	}
	for c := 0; c < bj; c++ {
		for r := g; r < bi; r += workers {
			if err := ctx.Err(); err != nil {
				return err
			}
			if part < 0 {
				// First item, or the previous partition was quarantined:
				// check out lazily so a worker that just finished its rows
				// never blocks on capacity it no longer needs.
				if part, err = a.checkout(ctx, cfg); err != nil {
					return err
				}
			}
			var itemStart time.Time
			if cfg.rec != nil {
				itemStart = time.Now()
			}
			if err := a.computeItem(part, scratch, m, in, out, r, c, cfg); err != nil {
				return err
			}
			if cfg.rec != nil {
				cfg.rec.Add(trace.StageCompute, time.Since(itemStart))
			}
			if cfg.health != nil && cfg.health.afterItem(cfg, part) {
				// The partition we hold just failed its calibration probe and
				// was quarantined: hand it to the monitor and continue on
				// whichever healthy partition the next checkout grants.
				// Results are unaffected — the remaining items accumulate in
				// the same order regardless of which partition runs them.
				a.checkin(part)
				part = -1
			}
		}
	}
	return nil
}

// computeItem executes one (block-row r, block-col c) work item on the
// partition with index pidx: fetch or compile the block's weight program,
// multiply block column c's modulated vectors by its transfer matrix, and
// detect the result into block row r of out.
func (a *Accelerator) computeItem(pidx int, s *workerScratch, m [][]float64, in *modulated, out []float64, r, c int, cfg *callConfig) error {
	n, nrhs := a.blockSize, in.nrhs
	bp, err := a.programFor(m, r, c, cfg.cache, &s.blockScratch)
	if err != nil {
		return err
	}
	var start time.Time
	if cfg.rec != nil {
		start = time.Now()
	}
	t := bp.Transfer()
	// With a fault injector attached, the hardware realizes a corrupted
	// version of the program it was asked for: drift advances one step per
	// item, and the item measures the faulted lattice's matrix through its
	// plan and multiplies by its real part. The cached program itself is
	// never touched.
	if inj := cfg.injector(pidx); inj != nil {
		inj.Step(1)
		if s.faulted == nil {
			s.measured, s.faulted = make([]complex128, n*n), make([]float64, n*n)
		}
		for i, v := range inj.Corrupt(bp).TransferInto(s.measured) {
			s.faulted[i] = real(v)
		}
		t = s.faulted
	}
	propagate(s.fields, t, in.states[c*nrhs*n:][:nrhs*n], n)
	if cfg.rec != nil {
		now := time.Now()
		cfg.rec.Add(trace.StagePropagate, now.Sub(start))
		start = now
	}

	var noise *optics.NoiseModel
	if cfg.noiseOn {
		rng := rand.New(rand.NewSource(noiseStreamSeed(cfg.noiseSeed, cfg.noiseCall, r, c)))
		nm := optics.DefaultNoise(1, rng)
		noise = &nm
	}
	detect(out[r*n*nrhs:][:n*nrhs], s.fields, in.scales[c*nrhs:][:nrhs], bp.Scale, noise, cfg.adc)
	if cfg.rec != nil {
		cfg.rec.Add(trace.StageDetect, time.Since(start))
	}
	return nil
}

// propagate writes into fields Re(T·x) = Re(T)·x for every n-wide real
// vector x of xs, where t holds Re T column-major: the real part of the
// lattice response ForwardBatch gives, up to float64 rounding that the ADC
// masks (DESIGN §3g).
func propagate(fields, t, xs []float64, n int) {
	for off := 0; off < len(xs); off += n {
		x, y := xs[off:off+n], fields[off:off+n]
		x0 := x[0]
		for i, c := range t[:n] {
			y[i] = c * x0
		}
		for j := 1; j < n; j++ {
			xj := x[j]
			for i, c := range t[j*n : (j+1)*n] {
				y[i] += c * xj
			}
		}
	}
}

// detect is the one post-propagation stage: for each live vector in
// ascending order (so noise draws are reproducible) it applies the block's
// spectral scale and detection noise, quantizes in the ADC's normalized
// domain (an all-zero block, scale 0, has none and skips it), restores both
// scales and adds the n detected values into column v of rows, the item's n
// output rows (row-major, one column per vector).
//
// It is the real half of the complex receive chain it replaced, bit for
// bit (TestEngineReceiveChainMatchesComplexOracle). The imaginary channel
// still draws its noise, so every later draw is the one the complex chain
// took. Otherwise the imaginary half reached the output only as im·0 (in
// the scale products, the division by the real scale and real(d·scale)):
// a zero, which moves at most the sign of a zero result, absorbed by the
// output rows (they start at +0 and a sum never makes them −0); or a NaN,
// which needs a NaN input that poisons the real half as well. Only where a
// field times the block scale overflows (a spectral norm within √n of
// MaxFloat64) did Inf·0 turn the complex output NaN; the real chain keeps
// the real half's value there (DESIGN §3c).
func detect(rows, fields, scales []float64, blockScale float64, noise *optics.NoiseModel, adc optics.Quantizer) {
	n, nrhs := len(fields)/len(scales), len(scales)
	for v, scale := range scales {
		if scale == 0 {
			continue
		}
		det := fields[v*n:][:n]
		for i, d := range det {
			d *= blockScale
			if noise != nil {
				d = noise.Apply(d)
				noise.Apply(0) // the imaginary channel's draws
			}
			if blockScale != 0 {
				d /= blockScale
			}
			det[i] = d
		}
		if blockScale != 0 {
			adc.QuantizeVec(det)
		}
		for i, d := range det {
			if blockScale != 0 {
				d *= blockScale
			}
			rows[i*nrhs+v] += d * scale
		}
	}
}

// programFor resolves the weight program of block (r, c) of m zero-padded
// to the block size, through the cache when one is configured. The block's
// wfp key is appended into s.key from m in place and looked up without
// allocating; the block is copied out (into s.block, the call's one complex
// copy) only on a miss, and the compiler works in its own pooled scratch,
// so a miss allocates the program and its cache entry and nothing else.
// Concurrent misses on the same key compile independently and the last put
// wins; compilation is deterministic, so every copy is interchangeable.
func (a *Accelerator) programFor(m [][]float64, r, c int, cache *programCache, s *blockScratch) (*photonic.BlockProgram, error) {
	n := a.blockSize
	if cache != nil {
		s.key = wfp.AppendBlock(s.key[:0], m, n, r, c)
		if bp, ok := cache.get(s.key); ok {
			return bp, nil
		}
	}
	if s.block == nil {
		s.block = mat.New(n, n)
	}
	for i := 0; i < n; i++ {
		var row []float64
		if r*n+i < len(m) {
			row = m[r*n+i]
		}
		for j := 0; j < n; j++ {
			var v float64
			if c*n+j < len(row) {
				v = row[c*n+j]
			}
			s.block.Set(i, j, complex(v, 0))
		}
	}
	bp, err := photonic.CompileBlockScaled(s.block)
	if err != nil || cache == nil {
		return bp, err
	}
	cache.put(string(s.key), bp)
	return bp, nil
}

// noiseStreamSeed derives the RNG seed of one work item's noise stream
// from the run seed, the matMul call number, and the block coordinates
// (splitmix64-style mixing), decoupling noise reproducibility from worker
// scheduling.
func noiseStreamSeed(seed, call int64, r, c int) int64 {
	z := uint64(seed)
	z ^= 0x9e3779b97f4a7c15 * uint64(call+1)
	z ^= 0xbf58476d1ce4e5b9 * uint64(r+1)
	z ^= 0x94d049bb133111eb * uint64(c+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// CacheStats reports weight-program cache effectiveness.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Capacity  int
	// Pinned counts entries currently held against eviction (the model
	// registry pins every block program of a registered model so prewarmed
	// weights survive arbitrary inline-request churn).
	Pinned int
}

// programCache is a mutex-guarded LRU of compiled block programs keyed by
// the padded block's wfp key (its exact bits), so a hit is guaranteed to
// return the identical program a fresh compile would.
type programCache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	index     map[string]*list.Element
	hits      int64
	misses    int64
	evictions int64
	// pinned counts entries currently held by at least one pin.
	pinned int
}

type cacheEntry struct {
	key string
	bp  *photonic.BlockProgram
	// pins is a reference count of registry holds on this entry; a pinned
	// entry (pins > 0) is skipped by the LRU's eviction scan. Counting —
	// rather than a boolean — lets two registered models that share a block
	// (or one model that repeats a block) pin and unpin independently.
	pins int
}

func newProgramCache(capacity int) *programCache {
	return &programCache{
		capacity: capacity,
		ll:       list.New(),
		index:    make(map[string]*list.Element),
	}
}

// get, pin and unpin take the key as bytes: index[string(key)] looks up
// without allocating, so only put — a miss — pays for a key string.
func (pc *programCache) get(key []byte) (*photonic.BlockProgram, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.index[string(key)]; ok {
		pc.ll.MoveToFront(el)
		pc.hits++
		return el.Value.(*cacheEntry).bp, true
	}
	pc.misses++
	return nil, false
}

func (pc *programCache) put(key string, bp *photonic.BlockProgram) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.index[key]; ok {
		el.Value.(*cacheEntry).bp = bp
		pc.ll.MoveToFront(el)
		return
	}
	pc.index[key] = pc.ll.PushFront(&cacheEntry{key: key, bp: bp})
	for pc.ll.Len() > pc.capacity {
		// Scan from the LRU end for the first unpinned victim. Pinned
		// entries are immovable: when pins alone exceed capacity the cache
		// grows past it rather than evicting a registered model's program.
		el := pc.ll.Back()
		for el != nil && el.Value.(*cacheEntry).pins > 0 {
			el = el.Prev()
		}
		if el == nil {
			return
		}
		pc.ll.Remove(el)
		ent := el.Value.(*cacheEntry)
		delete(pc.index, ent.key)
		pc.evictions++
	}
}

// pin marks key's entry as held against eviction (reference-counted).
// Returns false when the key is not resident — the caller compiles and puts
// first, so a false here means a concurrent eviction won the race.
func (pc *programCache) pin(key []byte) bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.index[string(key)]
	if !ok {
		return false
	}
	ent := el.Value.(*cacheEntry)
	if ent.pins == 0 {
		pc.pinned++
	}
	ent.pins++
	return true
}

// unpin releases one pin hold on key; the entry becomes evictable again
// when its count reaches zero. Returns false for unknown or unpinned keys.
func (pc *programCache) unpin(key []byte) bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.index[string(key)]
	if !ok {
		return false
	}
	ent := el.Value.(*cacheEntry)
	if ent.pins == 0 {
		return false
	}
	ent.pins--
	if ent.pins == 0 {
		pc.pinned--
	}
	return true
}

func (pc *programCache) stats() CacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return CacheStats{
		Hits:      pc.hits,
		Misses:    pc.misses,
		Evictions: pc.evictions,
		Entries:   pc.ll.Len(),
		Capacity:  pc.capacity,
		Pinned:    pc.pinned,
	}
}

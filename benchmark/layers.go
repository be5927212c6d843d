package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"flumen"
	"flumen/internal/cluster"
	"flumen/internal/loadgen"
	"flumen/internal/mat"
	"flumen/internal/optics"
	"flumen/internal/photonic"
	"flumen/internal/registry"
	"flumen/internal/serve"
	"flumen/internal/wfp"
)

// The traced run of a serving workload. Everything here is measured from
// outside the program: by differencing counters it already exports, by
// reading the stage breakdown it returns under X-Flumen-Trace: 1, and by a
// single-threaded layer replay that times calls into each module's exported
// functions on the inputs the workload carries.

// Shares of the measuring time the traced run gives each live phase.
const (
	untracedShare = 0.3
	tracedShare   = 0.3
	directShare   = 0.2 // routed_mixed only: the same traffic without the router
)

// replayEvery and replayMax pick the layer-replay sample: every tenth
// request of the stream, at most replayMax of them.
const (
	replayEvery = 10
	replayMax   = 200
)

// accTotals is the accelerator counters of one backend, or of several summed.
type accTotals struct {
	hits, misses, evictions   int64
	programs                  int64
	compiles, reuses, fallbks int64
	energyPJ                  float64
}

// plus returns a + sign·b, field by field.
func (a accTotals) plus(b accTotals, sign int64) accTotals {
	return accTotals{
		hits: a.hits + sign*b.hits, misses: a.misses + sign*b.misses, evictions: a.evictions + sign*b.evictions,
		programs: a.programs + sign*b.programs,
		compiles: a.compiles + sign*b.compiles, reuses: a.reuses + sign*b.reuses, fallbks: a.fallbks + sign*b.fallbks,
		energyPJ: a.energyPJ + float64(sign)*b.energyPJ,
	}
}

func (a accTotals) hitRatio() float64 { return ratio(float64(a.hits), float64(a.hits+a.misses)) }

// accStats reads the accelerator counters of every backend.
func (f *fleet) accStats() []accTotals {
	per := make([]accTotals, f.backends.N())
	for i := range per {
		s := f.backends.Backend(i).Accelerator().Stats()
		per[i] = accTotals{
			hits: s.Cache.Hits, misses: s.Cache.Misses, evictions: s.Cache.Evictions,
			programs: s.Programs,
			compiles: s.Kernel.PlanCompiles, reuses: s.Kernel.PlanReuses, fallbks: s.Kernel.Fallbacks,
			energyPJ: s.EnergyPJ,
		}
	}
	return per
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (w *servingWorkload) layers(e *env) (*outcome, error) {
	o := newOutcome(w.name(), phasePerLayer)
	o.Digests["request"], o.Digests["conformance"] = w.reqDigest, w.confDigest
	m := o.Metrics
	e.yard.read()
	m["loadgen.stream_gen_s"] = w.genS
	m["loadgen.expect_s"] = w.expectS
	m["loadgen.req_bytes_mean"] = w.reqBytesMean

	cl := newClient(clients)
	defer cl.CloseIdleConnections()
	scfg := w.scfg
	scfg.TraceRing = 1 << 15 // keep every traced request of the run for /debug/requests
	f, _, err := w.bringUp(cl, scfg)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	d := driver{cl: cl, url: f.url, ref: w.ref}
	o.phase("warmup", w.warmUp(d))

	// Untraced phase: counters before and after, client-side latency.
	perBefore := f.accStats()
	var rtBefore cluster.Stats
	if f.router != nil {
		rtBefore = f.router.Stats()
	}
	decodedBefore := w.ref.decoded.Load()
	plain, elapsed := w.drive(d, scale(e.seconds, untracedShare))
	m["loadgen.decoded_share"] = ratio(float64(w.ref.decoded.Load()-decodedBefore), float64(plain.sent))
	o.phase("untraced", plain)
	// What each backend's accelerator did during the phase, and the sum.
	var acc accTotals
	perBackend := f.accStats()
	for i := range perBackend {
		perBackend[i] = perBackend[i].plus(perBefore[i], -1)
		acc = acc.plus(perBackend[i], 1)
	}
	if plain.ok == 0 {
		o.fail("untraced phase: " + plain.firstBad)
		return o, nil
	}
	plainRPS := float64(plain.ok) / elapsed.Seconds()
	m["loadgen.resp_bytes_mean"] = float64(plain.respBytes) / float64(plain.ok)
	m["loadgen.rtt_p99_ms"] = percentile(plain.latMS, 99)
	m["loadgen.error_rate"] = ratio(float64(plain.failed()), float64(plain.sent))
	if w.spec.rate > 0 {
		m["loadgen.sched_late_p99_ms"] = percentile(plain.lateMS, 99)
		m["loadgen.slo_miss_rate"] = ratio(float64(plain.sloMiss), float64(plain.sent))
	}
	m["serve.rejects_503"] = float64(plain.rejected)
	m["flumen.cache_hit_ratio"] = acc.hitRatio()
	m["flumen.cache_evictions"] = float64(acc.evictions)
	m["flumen.programs"] = float64(acc.programs)
	m["flumen.plan_compiles"] = float64(acc.compiles)
	m["flumen.plan_reuses"] = float64(acc.reuses)
	m["flumen.kernel_fallbacks"] = float64(acc.fallbks)
	m["flumen.energy_pj_per_req"] = acc.energyPJ / float64(plain.ok)
	if f.router != nil {
		rt := f.router.Stats()
		routed := float64(rt.Routed - rtBefore.Routed)
		m["cluster.affinity_ratio"] = ratio(float64(rt.AffinityHits-rtBefore.AffinityHits), routed)
		m["cluster.retries"] = float64(rt.Retries - rtBefore.Retries)
		m["cluster.spills"] = float64(rt.Spills - rtBefore.Spills)
		m["cluster.no_backend"] = float64(rt.NoBackend - rtBefore.NoBackend)
		for i := range rt.Backends {
			share := ratio(float64(rt.Backends[i].Requests-rtBefore.Backends[i].Requests), routed)
			m["cluster.backend_share_max"] = max(m["cluster.backend_share_max"], share)
		}
		// The lower per-backend hit ratio: affinity is meant to keep both warm.
		m["cluster.backend_hit_ratio"] = perBackend[0].hitRatio()
		for _, b := range perBackend[1:] {
			m["cluster.backend_hit_ratio"] = min(m["cluster.backend_hit_ratio"], b.hitRatio())
		}
	}

	// Traced phase: the same traffic from the start of the stream with
	// X-Flumen-Trace: 1; the server's own stage breakdown comes back in
	// every answer.
	phaseStart := time.Now()
	d.traced = true
	traced, elapsed := w.drive(d, scale(e.seconds, tracedShare))
	o.phase("traced", traced)
	if traced.ok == 0 || len(traced.traced) == 0 {
		o.fail("traced phase: no traced answer; " + traced.firstBad)
		return o, nil
	}
	if w.spec.rate > 0 {
		// An open loop sends at its own rate whatever tracing costs, so
		// the cost shows in latency.
		m["trace.overhead_pct"] = 100 * (percentile(traced.latMS, 50)/percentile(plain.latMS, 50) - 1)
	} else {
		m["trace.overhead_pct"] = 100 * (1 - float64(traced.ok)/elapsed.Seconds()/plainRPS)
	}
	w.stageMetrics(e, m, traced, phaseStart)
	writeMS, cover, err := ringStages(cl, f)
	if err != nil {
		return nil, err
	}
	m["serve.stage.write_ms"], m["serve.stage.wall_cover"] = writeMS, cover

	sample := w.replaySample(e)
	rttMS, handlerMS, loneFailed := w.loneReplay(cl, f, sample)
	if loneFailed > 0 {
		o.fail(fmt.Sprintf("single-client phase: %d of %d requests failed", loneFailed, 2*len(sample)))
	}
	m["serve.handler_ms"] = percentile(handlerMS, 50)
	m["serve.transport_ms"] = percentile(rttMS, 50) - m["serve.handler_ms"]

	if w.spec.backends > 1 {
		if err := w.routerHop(e, cl, o, plain); err != nil {
			return nil, err
		}
	}

	if err := w.layerReplay(e, m, sample); err != nil {
		return nil, err
	}
	e.yard.read()
	m["bench.host_speed"] = e.yard.speed()
	o.Attempted = plain.sent + traced.sent + 2*len(sample)
	o.Failed = plain.failed() + traced.failed() + loneFailed
	if o.Failed > 0 && o.Correct {
		o.fail(plain.firstBad + traced.firstBad)
	}
	return o, nil
}

func scale(d time.Duration, share float64) time.Duration {
	return time.Duration(float64(d) * share)
}

// The wall-clock stages of a flumend trace in the order a request passes
// through them, and the engine stages that run inside exec.
var (
	wallStages = []string{"decode", "queue_wait", "coalesce", "exec"}
	execStages = []string{"lease_wait", "compute"}
)

// stageMetrics averages the stage durations the server reported and turns
// each traced request into a client span with the server's stages beneath
// it. The server reports durations, not start times, so the wall stages are
// laid end to end from the server's own start, the order it runs them in.
func (w *servingWorkload) stageMetrics(e *env, m map[string]float64, t tally, phaseStart time.Time) {
	n := float64(len(t.traced))
	for _, ts := range t.traced {
		id := w.ref.st.Requests[ts.shot.idx].RequestID
		root := e.spans.add(-1, "loadgen.rtt", id, phaseStart.Add(ts.shot.sent), phaseStart.Add(ts.shot.done))
		at := ts.rec.Start
		for _, st := range wallStages {
			d := time.Duration(ts.rec.Stages[st] * float64(time.Millisecond))
			m["serve.stage."+st+"_ms"] += ts.rec.Stages[st] / n
			if d == 0 {
				continue
			}
			sp := e.spans.add(root, "serve.stage."+st, id, at, at.Add(d))
			if st == "exec" {
				for _, sub := range execStages {
					sd := time.Duration(ts.rec.Stages[sub] * float64(time.Millisecond))
					e.spans.add(sp, "serve.stage."+sub, id, at, at.Add(min(sd, d)))
				}
			}
			at = at.Add(d)
		}
		for _, sub := range execStages {
			m["serve.stage."+sub+"_ms"] += ts.rec.Stages[sub] / n
		}
	}
	m["serve.batch_size_mean"] = mean(t.batched)
}

// ringStages reads every backend's /debug/requests ring, the only place the
// write stage is reported (an answer is snapshotted before it is written),
// and returns the mean write time and the mean share of a request's total
// the wall stages account for.
func ringStages(cl *http.Client, f *fleet) (writeMS, cover float64, err error) {
	var writes, covers []float64
	for _, url := range f.backends.URLs() {
		resp, err := cl.Get(url + "/debug/requests")
		if err != nil {
			return 0, 0, err
		}
		var recs []traceRecord
		err = json.NewDecoder(resp.Body).Decode(&recs)
		resp.Body.Close()
		if err != nil {
			return 0, 0, fmt.Errorf("%s/debug/requests: %w", url, err)
		}
		for _, r := range recs {
			writes = append(writes, r.Stages["write"])
			covers = append(covers, ratio(r.WallMS, r.TotalMS))
		}
	}
	return mean(writes), mean(covers), nil
}

// routerHop answers the same traffic from one flumend with no router in
// front, which is what serve_mixed measures, and books the difference at
// the median and at p95 as the cost of the hop.
func (w *servingWorkload) routerHop(e *env, cl *http.Client, o *outcome, routed tally) error {
	direct := *w
	direct.spec.backends = 1
	f, _, err := direct.bringUp(cl, w.scfg)
	if err != nil {
		return err
	}
	defer f.stop()
	d := driver{cl: cl, url: f.url, ref: w.ref}
	w.warmUp(d)
	t, _ := direct.drive(d, scale(e.seconds, directShare))
	o.phase("direct", t)
	if t.failed() > 0 || t.ok == 0 {
		o.fail("direct phase: " + t.firstBad)
		return nil
	}
	o.Metrics["cluster.hop_p50_ms"] = percentile(routed.latMS, 50) - percentile(t.latMS, 50)
	o.Metrics["cluster.hop_p95_ms"] = percentile(routed.latMS, 95) - percentile(t.latMS, 95)
	return nil
}

func (w *servingWorkload) replaySample(e *env) []int {
	limit := replayMax
	if e.quick {
		limit = 20
	}
	var sample []int
	for i := 0; i < len(w.ref.st.Requests) && len(sample) < limit; i += replayEvery {
		sample = append(sample, i)
	}
	return sample
}

// loneReplay sends each request of the sample twice with nothing else in
// flight: once over the socket and once straight into backend 0's handler
// with an in-memory recorder, the whole server without a socket. Which goes
// first alternates, because the second finds the first's programs cached.
// It returns both sets of latencies in ascending order.
func (w *servingWorkload) loneReplay(cl *http.Client, f *fleet, sample []int) (rttMS, handlerMS []float64, failed int) {
	h := f.backends.Backend(0).Handler()
	var buf bytes.Buffer
	for i, idx := range sample {
		r := &w.ref.st.Requests[idx]
		socket := func() {
			t0 := time.Now()
			status, err := issue(cl, f.url, r, false, &buf)
			rttMS = append(rttMS, ms(time.Since(t0)))
			if w.ref.verdict(idx, status, buf.Bytes(), err) != "" {
				failed++
			}
		}
		direct := func() {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, r.Path, bytes.NewReader(r.Body))
			t0 := time.Now()
			h.ServeHTTP(rec, req)
			handlerMS = append(handlerMS, ms(time.Since(t0)))
			if w.ref.verdict(idx, rec.Code, rec.Body.Bytes(), nil) != "" {
				failed++
			}
		}
		if i%2 == 0 {
			socket()
			direct()
		} else {
			direct()
			socket()
		}
	}
	sort.Float64s(rttMS)
	sort.Float64s(handlerMS)
	return rttMS, handlerMS, failed
}

// layerReplay walks the sample once, single-threaded, and for each request
// times a call into every layer beneath the handler on that request's own
// inputs. The calls of one request share a root span; they run one after
// another, so the spans are siblings, not nested.
func (w *servingWorkload) layerReplay(e *env, m map[string]float64, sample []int) error {
	scfg := w.scfg
	newAcc := func() (*flumen.Accelerator, error) { return flumen.NewAccelerator(scfg.Ports, scfg.BlockSize) }
	warmAcc, err := newAcc()
	if err != nil {
		return err
	}
	coldAcc, err := newAcc()
	if err != nil {
		return err
	}
	ref, err := serve.NewReference(scfg)
	if err != nil {
		return err
	}
	quant := optics.NewQuantizer(8, 1)
	rng := rand.New(rand.NewSource(e.seed))
	ctx := context.Background()
	durs := map[string][]time.Duration{}
	var macs, vecNS, elemNS []float64

	for _, idx := range sample {
		r := &w.ref.st.Requests[idx]
		start := time.Now()
		root := e.spans.add(-1, "layer_replay", r.RequestID, start, start)
		var failure error
		timed := func(name string, fn func() error) time.Duration {
			d := e.spans.timed(root, name, r.RequestID, func() {
				if err := fn(); err != nil && failure == nil {
					failure = fmt.Errorf("layer replay of %s: %s: %w", r.RequestID, name, err)
				}
			})
			durs[name] = append(durs[name], d)
			return d
		}
		switch r.Op {
		case loadgen.OpMatMul:
			var req serve.MatMulRequest
			timed("serve.decode", func() error { return json.Unmarshal(r.Body, &req) })
			if failure != nil {
				return failure
			}
			weights := w.ref.st.Matrices[r.WeightIdx]
			timed("wfp.matrix", func() error { wfp.Matrix(weights); return nil })
			// The first call programs whatever the cache lacks; the second
			// finds every block program and plan in place.
			if _, err := warmAcc.MatMulCtx(ctx, weights, req.X); err != nil {
				return err
			}
			d := timed("flumen.matmul_warm", func() error { _, err := warmAcc.MatMulCtx(ctx, weights, req.X); return err })
			macs = append(macs, float64(len(weights)*len(weights[0])*len(req.X[0]))/d.Seconds())
			fresh := randMatrix(rng, len(weights), len(weights[0]))
			timed("flumen.matmul_cold", func() error { _, err := coldAcc.MatMulCtx(ctx, fresh, req.X); return err })

			block := mat.Block(mat.FromReal(weights), scfg.BlockSize, 0, 0)
			var bp *photonic.BlockProgram
			timed("photonic.program_block", func() (err error) { bp, err = photonic.CompileBlockScaled(block); return err })
			var svd mat.SVDResult
			timed("mat.svd", func() error { svd = mat.SVD(block); return nil })
			if failure != nil {
				return failure
			}
			timed("photonic.decompose", func() error { _, _, err := photonic.Decompose(svd.U); return err })
			var plan *photonic.CompiledPlan
			timed("photonic.plan_compile", func() error { plan, _ = bp.Plan(); return nil })
			k := len(req.X[0])
			states := make([]complex128, k*plan.N())
			for i := range states {
				states[i] = complex(rng.Float64(), 0)
			}
			d = timed("photonic.forward_batch", func() error { plan.ForwardBatch(states, k); return nil })
			vecNS = append(vecNS, ns(d)/float64(k))
			xs := flatten2(req.X)
			d = timed("optics.quantize", func() error { quant.QuantizeVec(xs); return nil })
			elemNS = append(elemNS, ns(d)/float64(len(xs)))
			timed("serve.encode", func() error {
				_, err := json.Marshal(serve.MatMulResponse{C: w.ref.exp[idx].C, Batched: 1})
				return err
			})
		case loadgen.OpConv2D:
			var req serve.Conv2DRequest
			timed("serve.decode", func() error { return json.Unmarshal(r.Body, &req) })
			if failure != nil {
				return failure
			}
			if _, err := warmAcc.Conv2DCtx(ctx, req.Input, req.Kernels, req.Stride, req.Pad); err != nil {
				return err
			}
			timed("flumen.conv2d_warm", func() error {
				_, err := warmAcc.Conv2DCtx(ctx, req.Input, req.Kernels, req.Stride, req.Pad)
				return err
			})
			timed("serve.encode", func() error { _, err := json.Marshal(serve.Conv2DResponse{Output: w.ref.exp[idx].Output}); return err })
		case loadgen.OpInfer:
			var req serve.InferRequest
			timed("serve.decode", func() error { return json.Unmarshal(r.Body, &req) })
			if failure != nil {
				return failure
			}
			timed("flumen.infer", func() error { _, _, err := ref.Infer(req.Model, req.Volume, req.Vector); return err })
			timed("serve.encode", func() error {
				_, err := json.Marshal(serve.InferResponse{Model: req.Model, Logits: w.ref.exp[idx].Logits, Class: w.ref.exp[idx].Class})
				return err
			})
		}
		if failure != nil {
			return failure
		}
		e.spans.close(root, time.Now())
	}

	m["serve.decode_ms"] = p50(durs["serve.decode"], ms)
	m["serve.encode_ms"] = p50(durs["serve.encode"], ms)
	m["wfp.matrix_us"] = p50(durs["wfp.matrix"], us)
	m["flumen.matmul_warm_ms"] = p50(durs["flumen.matmul_warm"], ms)
	m["flumen.matmul_cold_ms"] = p50(durs["flumen.matmul_cold"], ms)
	m["flumen.conv2d_warm_ms"] = p50(durs["flumen.conv2d_warm"], ms)
	m["flumen.infer_ms"] = p50(durs["flumen.infer"], ms)
	m["flumen.macs_per_s"] = percentile(sortedCopy(macs), 50)
	m["photonic.program_block_us"] = p50(durs["photonic.program_block"], us)
	m["photonic.decompose_us"] = p50(durs["photonic.decompose"], us)
	m["photonic.plan_compile_us"] = p50(durs["photonic.plan_compile"], us)
	m["photonic.forward_batch_ns_per_vec"] = percentile(sortedCopy(vecNS), 50)
	m["mat.svd_us"] = p50(durs["mat.svd"], us)
	m["optics.quantize_ns_per_elem"] = percentile(sortedCopy(elemNS), 50)

	m["flumen.parallel_speedup"], err = parallelSpeedup(e, scfg)
	if err != nil {
		return err
	}
	return w.registryReplay(m, scfg)
}

func randMatrix(rng *rand.Rand, rows, cols int) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
		for j := range m[i] {
			m[i][j] = rng.NormFloat64()
		}
	}
	return m
}

// parallelSpeedup is the warm 64x64·64 matmul at one worker over the same
// call at the default worker count, the two alternating so that drift in
// the machine cancels. Above 1 means the partition worker pool helps. It is
// the one measurement taken with every CPU of the box and not on benchProcs:
// on one CPU the pool cannot help.
func parallelSpeedup(e *env, scfg serve.Config) (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	acc, err := flumen.NewAccelerator(scfg.Ports, scfg.BlockSize)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	const dim = 64
	weights, x := randMatrix(rng, dim, dim), randMatrix(rng, dim, dim)
	workers := acc.Workers()
	calls := 12
	if e.quick {
		calls = 3
	}
	var serial, parallel []time.Duration
	for i := 0; i <= calls; i++ {
		for _, side := range []struct {
			workers int
			into    *[]time.Duration
		}{{1, &serial}, {workers, &parallel}} {
			acc.SetWorkers(side.workers)
			t0 := time.Now()
			if _, err := acc.MatMulCtx(context.Background(), weights, x); err != nil {
				return 0, err
			}
			if i > 0 { // the first round programs the cache
				*side.into = append(*side.into, time.Since(t0))
			}
		}
	}
	return p50(serial, ms) / p50(parallel, ms), nil
}

// registryReplay registers the workload's weight matrices (at most 12, the
// size of the hot catalog) with a scratch registry over a scratch
// accelerator and times registration, prewarm and resolution.
func (w *servingWorkload) registryReplay(m map[string]float64, scfg serve.Config) error {
	acc, err := flumen.NewAccelerator(scfg.Ports, scfg.BlockSize)
	if err != nil {
		return err
	}
	reg, err := registry.Open(registry.Config{Engine: acc})
	if err != nil {
		return err
	}
	defer reg.Close()
	n := min(len(w.ref.st.Matrices), 12)
	var failure error
	ds := timeCalls(n, func(k int) {
		spec := &registry.Spec{Name: loadgen.ModelName(k), Version: "v1", Kind: registry.KindMatMul, M: w.ref.st.Matrices[k]}
		if _, _, err := reg.Register(spec); err != nil {
			failure = err
		}
	})
	t0 := time.Now()
	for reg.Stats().PrewarmPending > 0 {
		time.Sleep(100 * time.Microsecond)
	}
	m["registry.prewarm_s"] = time.Since(t0).Seconds()
	if failure != nil {
		return failure
	}
	m["registry.register_ms"] = p50(ds, ms)
	// One resolution is a map lookup, far below the clock's resolution:
	// time them 500 at a time.
	const batch = 500
	ds = timeCalls(20, func(int) {
		for i := 0; i < batch; i++ {
			if _, err := reg.Resolve(loadgen.ModelRef(i % n)); err != nil {
				failure = err
			}
		}
	})
	m["registry.resolve_us"] = p50(ds, us) / batch
	return failure
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"time"

	"flumen/internal/loadgen"
	"flumen/internal/serve"
)

const (
	clients    = 2    // client goroutines and connections: nproc on the reference box
	sloMS      = 10.0 // open-loop latency limit, from the due time
	warmShare  = 0.05 // share of the stream sent untimed before a timed phase
	setupRuns  = 9    // set-ups per run; setup_s is their median
	quickScale = 25   // -quick divides stream lengths by this
)

// servingSpec is one serving workload: how the traffic is shaped and what
// fleet answers it. BENCHMARK.json records why each exists.
type servingSpec struct {
	name      string
	backends  int     // 1 = flumend alone; 2 = flumen-router in front of two
	streamLen int     // distinct requests generated; a closed loop cycles through them
	rate      float64 // > 0 selects an open loop at this many requests per second
	shape     func(c *loadgen.Config)
}

var servingSpecs = []servingSpec{
	{name: "serve_mixed", backends: 1, streamLen: 3000, shape: func(*loadgen.Config) {}},
	{name: "serve_open_hot", backends: 1, rate: 200, shape: func(c *loadgen.Config) {
		c.Mix = loadgen.Mix{MatMul: 1}
	}},
	{name: "serve_cold", backends: 1, streamLen: 1500, shape: func(c *loadgen.Config) {
		c.Mix = loadgen.Mix{MatMul: 1}
		c.Matrices, c.ZipfS, c.ByNameFraction = 256, 1.01, 0
	}},
	{name: "serve_wide", backends: 1, streamLen: 400, shape: func(c *loadgen.Config) {
		c.Mix = loadgen.Mix{MatMul: 1}
		c.Matrices, c.Dim, c.NRHS, c.ByNameFraction = 4, 64, 64, 1
	}},
	// The same stream as serve_mixed, so the difference between the two is
	// the router hop and nothing else.
	{name: "routed_mixed", backends: 2, streamLen: 3000, shape: func(*loadgen.Config) {}},
}

func (sp servingSpec) config(e *env) loadgen.Config {
	c := loadgen.DefaultConfig()
	c.Seed = e.seed
	c.Concurrency = clients
	sp.shape(&c)
	c.Requests = sp.streamLen
	if e.quick {
		c.Requests = max(sp.streamLen/quickScale, 24)
	}
	if sp.rate > 0 {
		c.RatePerSec = sp.rate
		c.Requests = max(int(sp.rate*e.seconds.Seconds()), 20)
	}
	return c
}

type servingWorkload struct {
	spec servingSpec
	scfg serve.Config

	ref          *reference // the stream and its reference answers
	reqDigest    string
	confDigest   string
	genS         float64
	expectS      float64
	relErr       float64 // analog result against the float64 product, mean over matmul requests
	reqBytesMean float64
}

func (w *servingWorkload) name() string { return w.spec.name }

// prepare generates the stream from the seed and evaluates the reference
// answers. None of it is timed as set-up of the system under test.
func (w *servingWorkload) prepare(e *env) error {
	w.scfg = serve.DefaultConfig()
	cfg := w.spec.config(e)
	var shapes []serve.InferShape
	if cfg.Mix.Infer > 0 {
		ref, err := serve.NewReference(w.scfg)
		if err != nil {
			return err
		}
		shapes = ref.InferShapes()
	}
	t0 := time.Now()
	st, err := loadgen.NewStream(cfg, shapes)
	if err != nil {
		return err
	}
	w.genS = time.Since(t0).Seconds()
	t0 = time.Now()
	exp, conf, err := st.Expect(w.scfg)
	if err != nil {
		return err
	}
	w.expectS = time.Since(t0).Seconds()
	if w.ref, err = newReference(st, exp); err != nil {
		return err
	}
	w.confDigest, w.reqDigest = conf, st.RequestDigest()
	var bytes int
	for i := range st.Requests {
		bytes += len(st.Requests[i].Body)
	}
	w.reqBytesMean = float64(bytes) / float64(len(st.Requests))
	w.relErr, err = analogRelErr(st, exp)
	return err
}

// analogRelErr is the mean over the stream's matmul requests of
// ‖C − M·X‖_F / ‖M·X‖_F, C the reference answer every served response is
// checked against and M·X the float64 product.
func analogRelErr(st *loadgen.Stream, exp []loadgen.Expected) (float64, error) {
	var sum float64
	n := 0
	for i := range st.Requests {
		r := &st.Requests[i]
		if r.Op != loadgen.OpMatMul {
			continue
		}
		var body serve.MatMulRequest
		if err := json.Unmarshal(r.Body, &body); err != nil {
			return 0, fmt.Errorf("request %s: %w", r.RequestID, err)
		}
		sum += relFrobenius(exp[i].C, st.Matrices[r.WeightIdx], body.X)
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("stream has no matmul request to measure the analog error on")
	}
	return sum / float64(n), nil
}

func relFrobenius(c, m, x [][]float64) float64 {
	var diff, norm float64
	for i := range m {
		for j := range x[0] {
			var p float64
			for k := range x {
				p += m[i][k] * x[k][j]
			}
			d := c[i][j] - p
			diff += d * d
			norm += p * p
		}
	}
	return math.Sqrt(diff / norm)
}

// bringUp starts the fleet, registers and prewarms the stream's models and
// sends one request: the time a user waits between starting flumend and
// the first answer.
func (w *servingWorkload) bringUp(cl *http.Client, scfg serve.Config) (*fleet, time.Duration, error) {
	t0 := time.Now()
	f, err := startFleet(w.spec.backends, scfg)
	if err != nil {
		return nil, 0, err
	}
	if err := f.register(cl, w.ref.st.ModelSpecs()); err != nil {
		f.stop()
		return nil, 0, err
	}
	var buf bytes.Buffer
	status, err := issue(cl, f.url, &w.ref.st.Requests[0], false, &buf)
	if why := w.ref.verdict(0, status, buf.Bytes(), err); why != "" {
		f.stop()
		return nil, 0, fmt.Errorf("first request: %s", why)
	}
	return f, time.Since(t0), nil
}

// drive sends one phase of traffic and books the outcome: the stream's
// arrival schedule up to dur in an open loop, or dur of closed-loop cycling
// through the stream.
func (w *servingWorkload) drive(d driver, dur time.Duration) (tally, time.Duration) {
	reqs := w.ref.st.Requests
	if w.spec.rate == 0 {
		shots, elapsed := d.closed(len(reqs), clients, 0, dur)
		return w.ref.tallyOf(shots, 0), elapsed
	}
	n := sort.Search(len(reqs), func(i int) bool { return reqs[i].Arrival > dur })
	shots, elapsed := d.open(n, clients)
	return w.ref.tallyOf(shots, sloMS), elapsed
}

// warmUp sends the first 5 % of the stream, untimed, in a closed loop.
func (w *servingWorkload) warmUp(d driver) tally {
	n := len(w.ref.st.Requests)
	shots, _ := d.closed(n, clients, max(int(warmShare*float64(n)), 20), 0)
	return w.ref.tallyOf(shots, 0)
}

func (w *servingWorkload) endToEnd(e *env) (*outcome, error) {
	cl := newClient(clients)
	defer cl.CloseIdleConnections()

	var (
		f      *fleet
		setups []float64
	)
	e.yard.read()
	for i := 0; i < e.setupRuns(); i++ {
		if f != nil {
			if err := f.stop(); err != nil {
				return nil, err
			}
		}
		var (
			d   time.Duration
			err error
		)
		if f, d, err = w.bringUp(cl, w.scfg); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer f.stop()

	d := driver{cl: cl, url: f.url, ref: w.ref}
	warmTally := w.warmUp(d)

	e.yard.read()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t, elapsed := w.drive(d, e.seconds)
	runtime.ReadMemStats(&after)
	e.yard.read()

	o := newOutcome(w.name(), phaseEndToEnd)
	o.phase("warmup", warmTally)
	o.phase("timed", t)
	o.Digests["request"], o.Digests["conformance"] = w.reqDigest, w.confDigest
	o.Attempted, o.Failed = t.sent, t.failed()
	if warmTally.failed() > 0 {
		o.fail("warm-up: " + warmTally.firstBad)
	}
	if t.failed() > 0 {
		o.fail(t.firstBad)
	}
	if t.ok == 0 {
		return o, nil
	}
	n := windows
	if e.quick {
		n = 1
	}
	if perWindow := len(t.latMS) / n; !tailSupported(perWindow, 95) {
		o.note("WARNING: only %d samples beyond p95 in a window, need %d: latency_p95_ms is an outlier, not a measurement", samplesBeyond(perWindow, 95), minTailSamples)
	}
	ws := windowed(t.oks, e.seconds, n)
	if len(ws) == 0 {
		// No window got two answers (a -quick run on a slow machine): the
		// whole phase is the one window.
		ws = []windowStats{{perS: float64(t.ok) / elapsed.Seconds(), p50MS: percentile(t.latMS, 50), p95MS: percentile(t.latMS, 95)}}
	}
	// Timings are reported as the reference machine would have shown them
	// (calib.go); what was timed here goes to the notes. An open loop's rate
	// is its schedule's and not the machine's.
	quiet, speed := quietWindow(ws), e.yard.speed()
	o.Metrics["throughput_per_s"] = quiet.perS
	if w.spec.rate == 0 {
		o.Metrics["throughput_per_s"] = quiet.perS / speed
	}
	o.Metrics["latency_p50_ms"], o.Metrics["latency_p95_ms"] = quiet.p50MS*speed, quiet.p95MS*speed
	o.Metrics["alloc_bytes_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(t.ok)
	o.Metrics["result_ratio"] = w.relErr
	o.Metrics["setup_s"] = median(setups) * speed
	o.note("the machine ran at %.3f of the reference machine's speed; as timed here: %.1f answers/s, p50 %.3f ms, p95 %.3f ms, set-up %.4f s",
		speed, quiet.perS, quiet.p50MS, quiet.p95MS, median(setups))
	o.note("%d samples in %d windows, %d beyond p95 in each; whole phase as timed here: %.1f answers/s, p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, max %.3f ms",
		len(t.latMS), n, samplesBeyond(len(t.latMS)/n, 95), float64(t.ok)/elapsed.Seconds(),
		percentile(t.latMS, 50), percentile(t.latMS, 95), percentile(t.latMS, 99), last(t.latMS))
	for _, win := range ws {
		o.note("window %d: %.1f answers/s, p50 %.3f ms, p95 %.3f ms", win.k, win.perS, win.p50MS, win.p95MS)
	}
	if w.spec.rate > 0 {
		o.note("%d of %d requests sent missed the %g ms limit; the generator ran at most %.3f ms late", t.sloMiss, t.sent, sloMS, last(t.lateMS))
	}
	return o, nil
}

func last(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}

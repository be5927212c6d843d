package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"time"

	"flumen"
	"flumen/internal/core"
	"flumen/internal/noc"
	apps "flumen/internal/workload"
)

// The two simulator workloads share one shape: a fixed list of simulator
// calls (jobs) run serially, pass after pass, for the measuring time. The
// simulated statistics of a pass must repeat exactly in every pass, and in
// every later run with the same seed; only host time may change.

// simJob is one call into the simulator.
type simJob struct {
	key  string // "<benchmark>/<topology>" or "<topology>/<pattern>/<rate>"
	topo string
	// run returns the simulated cycles and the call's full result, which
	// goes into the statistics digest.
	run func() (cycles int64, result any, err error)
}

// simPass is one execution of every job.
type simPass struct {
	host    []time.Duration // per job, in job order
	results []any           // per job, in job order
	cycles  int64
	seconds float64
	digest  string
}

// simRun is the passes of one phase.
type simRun struct {
	jobs       []simJob
	passes     []simPass
	allocBytes uint64
	calls      int
	failed     int
	firstErr   error
}

// runPasses executes the jobs in a seed-shuffled order, pass after pass,
// while at least half of another pass fits the measuring time; at least two
// passes run, so that every run checks the statistics repeat. The machine's
// speed is read before the first pass and after each.
func runPasses(e *env, jobs []simJob) *simRun {
	order := rand.New(rand.NewSource(e.seed)).Perm(len(jobs))
	r := &simRun{jobs: jobs}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	e.yard.read()
	for {
		p := simPass{host: make([]time.Duration, len(jobs)), results: make([]any, len(jobs))}
		t0 := time.Now()
		for _, j := range order {
			job := jobs[j]
			var (
				cycles int64
				err    error
			)
			p.host[j] = e.spans.timed(-1, "sim."+job.key, "", func() { cycles, p.results[j], err = job.run() })
			r.calls++
			if err != nil {
				r.failed++
				if r.firstErr == nil {
					r.firstErr = fmt.Errorf("%s: %w", job.key, err)
				}
			}
			p.cycles += cycles
		}
		p.seconds = time.Since(t0).Seconds()
		p.digest = digestOf(p.results)
		r.passes = append(r.passes, p)
		e.yard.read()
		if len(r.passes) >= 2 && time.Since(start)+time.Duration(0.5*p.seconds*float64(time.Second)) > e.seconds {
			break
		}
	}
	runtime.ReadMemStats(&after)
	r.allocBytes = after.TotalAlloc - before.TotalAlloc
	return r
}

func digestOf(results []any) string {
	raw, err := json.Marshal(results)
	if err != nil {
		return "unhashable: " + err.Error()
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// jobMS is each job's host time in milliseconds: the fastest of its passes.
// The simulator does the same work in every pass, and whatever else the box
// is doing only ever adds to it, so the fastest pass is the measurement and
// the others are the simulator plus the neighbours.
func (r *simRun) jobMS() []float64 {
	out := make([]float64, len(r.jobs))
	for j := range r.jobs {
		out[j] = ms(r.passes[0].host[j])
		for _, p := range r.passes[1:] {
			out[j] = min(out[j], ms(p.host[j]))
		}
	}
	return out
}

// outcome books what every simulator workload reports in either phase:
// calls made and failed, whether the passes agree with each other, and
// whether they agree with the digest recorded for this seed.
func (r *simRun) outcome(e *env, name, phase string) *outcome {
	o := newOutcome(name, phase)
	o.Attempted, o.Failed = r.calls, r.failed
	o.Phases = []phaseCount{{Name: "passes", Sent: r.calls, OK: r.calls - r.failed, Failed: r.failed}}
	if r.firstErr != nil {
		o.fail(r.firstErr.Error())
	}
	digest := r.passes[0].digest
	o.Digests["sim_stats"] = digest
	for i, p := range r.passes {
		if p.digest != digest {
			o.fail(fmt.Sprintf("pass %d simulated different statistics than pass 0", i))
			o.Failed++
		}
	}
	if want, ok := recordedDigest(e, name); ok && want != digest {
		o.fail(fmt.Sprintf("simulated statistics differ from the digest recorded for seed %d (%s)", e.seed, want))
		o.Failed++
	}
	o.note("%d passes of %d calls, %d simulated cycles per pass", len(r.passes), len(r.jobs), r.passes[0].cycles)
	return o
}

// endToEnd fills the metrics every simulator workload shares. Timings are
// reported as the reference machine would have shown them (calib.go); what
// was timed here goes to the notes.
func (r *simRun) endToEnd(e *env, o *outcome, setupS, resultErr float64) {
	jobs, speed := sortedCopy(r.jobMS()), e.yard.speed()
	perS := float64(r.passes[0].cycles) / (sum(jobs) / 1e3)
	o.Metrics["throughput_per_s"] = perS / speed
	o.Metrics["latency_p50_ms"] = percentile(jobs, 50) * speed
	o.Metrics["latency_p95_ms"] = percentile(jobs, 95) * speed
	o.Metrics["alloc_bytes_per_op"] = float64(r.allocBytes) / float64(r.calls)
	o.Metrics["result_ratio"] = resultErr
	o.Metrics["setup_s"] = setupS * speed
	o.note("the machine ran at %.3f of the reference machine's speed; as timed here: %.0f simulated cycles per second, p50 %.3f ms, p95 %.3f ms, set-up %.4f s",
		speed, perS, percentile(jobs, 50), percentile(jobs, 95), setupS)
}

// Digests of the simulated statistics at full size, by workload and seed.
// A run with a recorded seed must reproduce its digest; -record-digests
// rewrites the file after a change that is meant to alter the model.
//
//go:embed sim_digests.json
var simDigestsJSON []byte

type digestTable map[string]map[string]string // workload -> seed -> digest

func recordedDigest(e *env, workload string) (string, bool) {
	if e.quick {
		return "", false
	}
	var t digestTable
	if err := json.Unmarshal(simDigestsJSON, &t); err != nil {
		return "", false
	}
	d, ok := t[workload][strconv.FormatInt(e.seed, 10)]
	return d, ok
}

func recordDigests(path string, e *env, res *resultsFile) error {
	if e.quick {
		return fmt.Errorf("-record-digests needs a full-size run")
	}
	t := digestTable{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &t); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for name, w := range res.Workloads {
		if d, ok := w.Digests["sim_stats"]; ok {
			if t[name] == nil {
				t[name] = map[string]string{}
			}
			t[name][strconv.FormatInt(e.seed, 10)] = d
		}
	}
	raw, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// warmPass runs every job once, untimed and unchecked.
func warmPass(jobs []simJob) {
	for _, j := range jobs {
		j.run() // results and errors are those of the measured passes
	}
}

// medianSetup is the median time of e.setupRuns() calls of build.
func medianSetup(e *env, build func()) float64 {
	var xs []float64
	for _, d := range timeCalls(e.setupRuns(), func(int) { build() }) {
		xs = append(xs, d.Seconds())
	}
	return median(xs)
}

// ---------------------------------------------------------------------------
// sim_suite: the paper's five benchmarks on the five topologies (Figs. 13-15).

// The paper's headline gains of Flumen-A over the electrical mesh.
const (
	paperSpeedup    = 3.6
	paperEnergyGain = 2.5
	paperEDPGain    = 9.3
)

// quickSimScale shrinks the benchmarks linearly under -quick.
const quickSimScale = 16

type simSuite struct{}

func (*simSuite) name() string       { return "sim_suite" }
func (*simSuite) prepare(*env) error { return nil }

// The simulator takes no seed: the five benchmarks are the inputs, and the
// seed only sets the order the 25 simulations run in.
func (*simSuite) jobs(small bool) []simJob {
	cfg := flumen.DefaultConfig()
	var jobs []simJob
	for _, bench := range flumen.Benchmarks() {
		for _, topo := range flumen.Topologies() {
			jobs = append(jobs, simJob{key: bench + "/" + topo, topo: topo, run: func() (int64, any, error) {
				var (
					res flumen.Result
					err error
				)
				if small {
					res, err = flumen.RunWorkload(scaledWorkload(bench), topo, cfg)
				} else {
					res, err = flumen.RunBenchmark(bench, topo, cfg)
				}
				return res.Cycles, res, err
			}})
		}
	}
	return jobs
}

// scaledWorkload builds a fresh shrunken benchmark: op streams are consumed
// by the run, so every call needs its own.
func scaledWorkload(name string) apps.Workload {
	for _, w := range apps.ScaledAll(quickSimScale) {
		if w.Name() == name {
			return w
		}
	}
	panic("benchmark: no scaled workload named " + name)
}

// setup is what runs before the first measured pass: building every
// benchmark's op streams, digital and offloaded, for 64 cores, and one pass
// over the shrunken benchmarks, which brings the heap and the simulator's
// lazily built state to working size.
func (w *simSuite) setup(e *env) float64 {
	cfg := flumen.DefaultConfig()
	return medianSetup(e, func() {
		ws := apps.All()
		if e.quick {
			ws = apps.ScaledAll(quickSimScale)
		}
		for _, app := range ws {
			app.DigitalStreams(cfg.Cores)
			app.OffloadStreams(cfg.Cores, cfg.ComputeBlock, cfg.ComputeLambdas)
		}
		warmPass(w.jobs(true))
	})
}

// suiteOf regroups one pass's results as the grid the library's own
// geomean helpers read.
func suiteOf(p simPass) *flumen.Suite {
	s := &flumen.Suite{Results: map[string]map[string]flumen.Result{}, Benchmarks: flumen.Benchmarks()}
	for _, r := range p.results {
		res := r.(flumen.Result)
		if s.Results[res.Benchmark] == nil {
			s.Results[res.Benchmark] = map[string]flumen.Result{}
		}
		s.Results[res.Benchmark][res.Topology] = res
	}
	return s
}

func relErr(got, want float64) float64 { return math.Abs(got-want) / want }

func paperErrs(s *flumen.Suite) (speedup, energy, edp float64) {
	return relErr(s.GeomeanSpeedup("Mesh"), paperSpeedup),
		relErr(s.GeomeanEnergyGain("Mesh"), paperEnergyGain),
		relErr(s.GeomeanEDPGain("Mesh"), paperEDPGain)
}

func (w *simSuite) endToEnd(e *env) (*outcome, error) {
	setupS := w.setup(e)
	r := runPasses(e, w.jobs(e.quick))
	o := r.outcome(e, w.name(), phaseEndToEnd)
	if r.firstErr != nil {
		return o, nil
	}
	sp, en, edp := paperErrs(suiteOf(r.passes[0]))
	r.endToEnd(e, o, setupS, (sp+en+edp)/3)
	return o, nil
}

func (w *simSuite) layers(e *env) (*outcome, error) {
	r := runPasses(e, w.jobs(e.quick))
	o := r.outcome(e, w.name(), phasePerLayer)
	if r.firstErr != nil {
		return o, nil
	}
	m := o.Metrics
	m["sim.stats_digest_match"] = digestMatch(e, w.name(), r.passes[0].digest)
	m["bench.host_speed"] = e.yard.speed()
	jobMS := r.jobMS()
	for j, job := range r.jobs {
		m["chip.host_s."+job.topo] += jobMS[j] / 1e3
	}
	s := suiteOf(r.passes[0])
	m["sim.speedup_err_vs_paper"], m["sim.energy_err_vs_paper"], m["sim.edp_err_vs_paper"] = paperErrs(s)
	for _, bench := range s.Benchmarks {
		for _, topo := range flumen.Topologies() {
			res := s.Results[bench][topo]
			if topo == "Mesh" || topo == "Flumen-A" {
				m["sim.cycles."+bench+"."+topo] = float64(res.Cycles)
				m["energy.total_pj."+topo] += res.Energy.TotalPJ()
			}
			if topo == "Flumen-A" {
				m["noc.link_util.Flumen-A"] += res.AvgLinkUtilization / float64(len(s.Benchmarks))
			}
			m["core.offloads_granted"] += float64(res.OffloadsGranted)
			m["core.reprograms"] += float64(res.Reprograms)
			m["core.tag_reuses"] += float64(res.TagReuses)
			m["chip.dram_accesses"] += float64(res.DRAMAccesses)
			m["chip.macs_on_cores"] += float64(res.MACsOnCores)
		}
	}
	return o, nil
}

// digestMatch is 1 when a digest is recorded for this seed and the run
// reproduced it, 0 otherwise.
func digestMatch(e *env, workload, digest string) float64 {
	if want, ok := recordedDigest(e, workload); ok && want == digest {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// nop_sweep: synthetic traffic on each network alone (Fig. 11).

var sweepRates = []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.3}

type nopSweep struct{}

func (*nopSweep) name() string       { return "nop_sweep" }
func (*nopSweep) prepare(*env) error { return nil }

func (*nopSweep) runConfig(e *env, small bool) noc.RunConfig {
	cfg := noc.DefaultRunConfig()
	cfg.Seed = e.seed
	if small {
		cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 100, 400, 2000
	}
	return cfg
}

func (w *nopSweep) jobs(e *env, small bool) []simJob {
	np := core.DefaultNetworkParams()
	cfg := w.runConfig(e, small)
	var jobs []simJob
	for _, kind := range core.AllTopologies() {
		for _, pat := range []noc.Pattern{noc.Uniform(np.Nodes), noc.BitReversal(np.Nodes)} {
			for _, rate := range sweepRates {
				jobs = append(jobs, simJob{
					key:  fmt.Sprintf("%s/%s/%g", kind, pat.Name, rate),
					topo: kind.String(),
					run: func() (int64, any, error) {
						res := noc.RunSynthetic(core.BuildNetwork(kind, np), pat, rate, cfg)
						return res.ElapsedCycles, res, nil
					},
				})
			}
		}
	}
	return jobs
}

// setup is what runs before the first measured pass: one pass of the sweep
// with short runs, which builds every network once and brings the heap to
// working size.
func (w *nopSweep) setup(e *env) float64 {
	return medianSetup(e, func() { warmPass(w.jobs(e, true)) })
}

// preSaturation is the highest swept rate at which no network has
// saturated under uniform traffic.
const preSaturation = 0.1

// flumenOverMesh is the mean packet latency of the Flumen network over that
// of the electrical mesh, under uniform traffic at the rates up to
// preSaturation. The paper's Fig. 11 gives no numbers to hold the model to,
// only the claim that Flumen is the faster of the two before saturation,
// that is a ratio below 1. It is a simulated statistic, so it repeats
// exactly for a seed, and it averages some 120 000 packets, so it moves by
// well under a hundredth between seeds.
func flumenOverMesh(r *simRun) float64 {
	lat := map[string]float64{}
	for j, job := range r.jobs {
		if res := r.passes[0].results[j].(noc.RunResult); res.PatternName == "uniform" && res.InjectRate <= preSaturation {
			lat[job.topo] += res.AvgLatency
		}
	}
	return lat[core.TopoFlumenA.String()] / lat[core.TopoMesh.String()]
}

func (w *nopSweep) endToEnd(e *env) (*outcome, error) {
	setupS := w.setup(e)
	r := runPasses(e, w.jobs(e, e.quick))
	o := r.outcome(e, w.name(), phaseEndToEnd)
	r.endToEnd(e, o, setupS, flumenOverMesh(r))
	return o, nil
}

func (w *nopSweep) layers(e *env) (*outcome, error) {
	r := runPasses(e, w.jobs(e, e.quick))
	o := r.outcome(e, w.name(), phasePerLayer)
	m := o.Metrics
	m["sim.stats_digest_match"] = digestMatch(e, w.name(), r.passes[0].digest)
	m["bench.host_speed"] = e.yard.speed()
	jobMS := r.jobMS()
	var (
		hostNS, cycles = map[string]float64{}, map[string]float64{}
		totalNS, pkts  float64
	)
	for j, job := range r.jobs {
		res := r.passes[0].results[j].(noc.RunResult)
		hostNS[job.topo] += jobMS[j] * 1e6
		cycles[job.topo] += float64(res.ElapsedCycles)
		totalNS += jobMS[j] * 1e6
		pkts += float64(res.DeliveredPkts)
		if res.PatternName != "uniform" {
			continue
		}
		if res.InjectRate == sweepRates[0] {
			m["noc.zero_load_latency_cycles."+job.topo] = res.AvgLatency
		}
		// Jobs are in ascending rate order, so the first saturated point
		// of a topology is its lowest.
		if key := "noc.saturation_rate." + job.topo; res.Saturated && m[key] == 0 {
			m[key] = res.InjectRate
		}
	}
	for _, topo := range sortedKeys(hostNS) {
		m["noc.host_ns_per_cycle."+topo] = hostNS[topo] / cycles[topo]
		// A network that never saturated in the sweep reads 1 packet per
		// node per cycle, the ceiling of the injection process.
		if key := "noc.saturation_rate." + topo; m[key] == 0 {
			m[key] = 1
		}
	}
	m["noc.host_ns_per_pkt"] = totalNS / pkts
	m["noc.delivered_pkts"] = pkts
	return o, nil
}

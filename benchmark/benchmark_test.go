package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"flumen/internal/serve"
)

const manifestPath = "../BENCHMARK.json"

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {0, 1}, {100, 10}, {91, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..10 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{200, 95, 10, true},
		{199, 95, 9, false},
		{1000, 99, 10, true},
		{999, 99, 9, false},
		{75, 95, 3, false},
		{0, 95, 0, false},
	} {
		if got := samplesBeyond(c.n, c.p); got != c.beyond {
			t.Errorf("samplesBeyond(%d, p%g) = %d, want %d", c.n, c.p, got, c.beyond)
		}
		if got := tailSupported(c.n, c.p); got != c.ok {
			t.Errorf("tailSupported(%d, p%g) = %v, want %v", c.n, c.p, got, c.ok)
		}
	}
}

func TestQuietWindowIgnoresSpoiledSlices(t *testing.T) {
	// Five one-second slices of ten answers each, 1 ms apiece, except that
	// three slices were stalled: every request of them took 100 ms and half
	// the answers came.
	var oks []okShot
	for k := 0; k < 5; k++ {
		stalled := k == 0 || k == 2 || k == 3
		for i := 0; i < 10; i++ {
			at := time.Duration(k)*time.Second + time.Duration(i)*100*time.Millisecond
			switch {
			case !stalled:
				oks = append(oks, okShot{due: at, done: at + time.Millisecond, latMS: 1})
			case i%2 == 0:
				oks = append(oks, okShot{due: at, done: at + 100*time.Millisecond, latMS: 100})
			}
		}
	}
	ws := windowed(oks, 5*time.Second, 5)
	if len(ws) != 5 || ws[2].p50MS != 100 || ws[1].p50MS != 1 {
		t.Fatalf("windows %+v, want 5 with the third at 100 ms and the second at 1 ms", ws)
	}
	quiet := quietWindow(ws)
	if quiet.p50MS != 1 || quiet.p95MS != 1 {
		t.Errorf("p50, p95 = %g, %g, want 1, 1: three stalled slices must not move the figure", quiet.p50MS, quiet.p95MS)
	}
	if math.Abs(quiet.perS-10) > 1e-9 {
		t.Errorf("answers per second = %g, want 10", quiet.perS)
	}
	if got := windowed(oks[:5], 5*time.Second, 5); len(got) != 1 || quietWindow(got) != got[0] {
		t.Errorf("windows %+v from a phase answered in its first slice only, want that one slice", got)
	}
}

func TestYardstickTakesTheFastestReading(t *testing.T) {
	y := newYardstick(true)
	y.read()
	if len(y.readings) != 1 || y.readings[0] <= 0 {
		t.Fatalf("readings %v after one reading, want one positive time", y.readings)
	}
	// A machine that does a piece in twice refPiece runs at half the
	// reference speed, however slow a neighbour made the other readings.
	y.readings = []time.Duration{5 * refPiece, 2 * refPiece, 3 * refPiece}
	if got := y.speed(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("speed %g, want 0.5", got)
	}
}

// quickStream is a small real stream with its reference answers.
func quickStream(t *testing.T, spec servingSpec, seed int64) *servingWorkload {
	t.Helper()
	w := &servingWorkload{spec: spec}
	if err := w.prepare(&env{seed: seed, quick: true, seconds: 300 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestOpenLoopChargesAStallToTheRequestsItDelays drives an open loop with
// one client against a stub that answers from the reference, stalls once
// and fails once.
func TestOpenLoopChargesAStallToTheRequestsItDelays(t *testing.T) {
	w := quickStream(t, servingSpecs[1], 1)
	reqs := w.ref.st.Requests[:12]
	for i := range reqs {
		reqs[i].Arrival = time.Duration(i) * 5 * time.Millisecond
	}
	const stallAt, failAt, stall = 3, 9, 60 * time.Millisecond
	byID := map[string]int{}
	for i := range reqs {
		byID[reqs[i].RequestID] = i
	}
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		i := byID[r.Header.Get(serve.HeaderRequestID)]
		io.Copy(io.Discard, r.Body)
		switch i {
		case stallAt:
			time.Sleep(stall)
		case failAt:
			http.Error(rw, "boom", http.StatusInternalServerError)
			return
		}
		json.NewEncoder(rw).Encode(serve.MatMulResponse{C: w.ref.exp[i].C, Batched: 1})
	}))
	defer srv.Close()

	cl := newClient(1)
	defer cl.CloseIdleConnections()
	shots, _ := driver{cl: cl, url: srv.URL, ref: w.ref}.open(len(reqs), 1)
	tl := w.ref.tallyOf(shots, sloMS)

	if tl.sent != len(reqs) || tl.failed() != 1 {
		t.Fatalf("sent %d failed %d, want %d, 1", tl.sent, tl.failed(), len(reqs))
	}
	// Requests 4..8 were due during the stall. The one right behind it
	// waited almost all of it, although its own round trip was short.
	next := shots[stallAt+1]
	if rtt := next.done - next.sent; rtt > stall/2 {
		t.Fatalf("request behind the stall took %v on the wire; the stub is slow, not stalled", rtt)
	}
	if fromDue := next.done - next.due; fromDue < stall-10*time.Millisecond {
		t.Errorf("request behind the stall is charged %v from its due time, want about %v", fromDue, stall)
	}
	// The stalled request, the failed one, and at least the requests due in
	// the first 50 ms of the stall miss the 10 ms limit.
	if tl.sloMiss < 5 {
		t.Errorf("%d requests missed the limit, want at least 5", tl.sloMiss)
	}
	if late := last(tl.lateMS); late < ms(stall)/2 {
		t.Errorf("generator lateness peaks at %.1f ms, want it to show the %v stall", late, stall)
	}
	if len(tl.latMS) != len(reqs)-1 {
		t.Errorf("%d latency samples, want %d: a failure has no latency, it has a miss", len(tl.latMS), len(reqs)-1)
	}
}

func TestVerdictCatchesOneFlippedBit(t *testing.T) {
	w := quickStream(t, servingSpecs[1], 1)
	want := w.ref.exp[0].C
	good, err := json.Marshal(serve.MatMulResponse{C: want, Batched: 3, ElapsedMS: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if why := w.ref.verdict(0, 200, good, nil); why != "" {
		t.Fatalf("reference answer rejected: %s", why)
	}
	// The same values written another way take the decoding path and pass.
	spaced := bytes.ReplaceAll(good, []byte(","), []byte(" , "))
	if why := w.ref.verdict(0, 200, spaced, nil); why != "" {
		t.Errorf("reference answer with other spacing rejected: %s", why)
	}
	c := append([][]float64{append([]float64(nil), want[0]...)}, want[1:]...)
	c[0][0] = math.Nextafter(c[0][0], 2*c[0][0])
	bad, _ := json.Marshal(serve.MatMulResponse{C: c})
	if w.ref.verdict(0, 200, bad, nil) == "" {
		t.Errorf("an answer one bit off passed")
	}
	if w.ref.verdict(0, 503, good, nil) == "" || w.ref.verdict(0, 200, good, io.ErrUnexpectedEOF) == "" {
		t.Errorf("a 503 or a transport error passed")
	}
	if tl := w.ref.tallyOf([]shot{{idx: 0, status: 200, bad: "off"}, {idx: 0, status: 503, bad: "full"}, {idx: 0, bad: "reset"}, {idx: 0, status: 200}}, 0); tl.rejected != 1 || tl.ok != 1 || tl.failed() != 3 {
		t.Errorf("tally %+v, want one ok, three failures, one of them a 503", tl)
	}
}

func TestInputsComeFromTheSeed(t *testing.T) {
	for _, spec := range servingSpecs {
		a, b, c := quickStream(t, spec, 1), quickStream(t, spec, 1), quickStream(t, spec, 2)
		if a.reqDigest != b.reqDigest || a.confDigest != b.confDigest || a.relErr != b.relErr {
			t.Errorf("%s: seed 1 generated two different workloads", spec.name)
		}
		if a.reqDigest == c.reqDigest {
			t.Errorf("%s: seeds 1 and 2 generated the same requests", spec.name)
		}
	}
	if a, b := servingSpecs[0], servingSpecs[4]; quickStream(t, a, 3).reqDigest != quickStream(t, b, 3).reqDigest {
		t.Errorf("%s and %s must send the same stream", a.name, b.name)
	}
	sweep := &nopSweep{}
	digest := func(seed int64) string {
		e := &env{seed: seed, quick: true}
		var results []any
		for _, j := range sweep.jobs(e, true)[:6] {
			_, res, _ := j.run()
			results = append(results, res)
		}
		return digestOf(results)
	}
	if digest(1) != digest(1) || digest(1) == digest(2) {
		t.Errorf("nop_sweep statistics must be a function of the seed")
	}
}

func TestManifestMeetsTheContract(t *testing.T) {
	m, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) > maxWorkloads || len(m.EndToEnd) > maxEndToEnd || len(m.PerLayer) > maxPerLayer {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed %d, %d, %d",
			len(m.Workloads), len(m.EndToEnd), len(m.PerLayer), maxWorkloads, maxEndToEnd, maxPerLayer)
	}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back manifest
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, &back) {
		t.Errorf("BENCHMARK.json does not round-trip")
	}
	if _, err := selectWorkloads(m, ""); err != nil {
		t.Error(err)
	}
	for _, p := range m.Paths {
		if p != "benchmark" {
			t.Errorf("path %q: the benchmark lives in benchmark/ alone", p)
		}
	}
	if st, err := os.Stat(manifestPath); err != nil || st.Size() > 64<<10 {
		t.Errorf("BENCHMARK.json must be at most 64 KiB")
	}

	bad := *m
	bad.EndToEnd = append([]metricDef(nil), m.EndToEnd...)
	bad.EndToEnd[0].Name = "has space"
	if bad.validate() == nil {
		t.Errorf("a metric name with a space passed validation")
	}
	bad.EndToEnd[0] = m.PerLayer[0]
	if bad.validate() == nil {
		t.Errorf("a name used twice passed validation")
	}
}

// TestQuickRunOfEveryWorkload runs the program the way the driver does,
// both phases of all seven workloads at about 1/25 size.
func TestQuickRunOfEveryWorkload(t *testing.T) {
	dir := t.TempDir()
	m, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	out := filepath.Join(dir, "results.json")
	if code := run([]string{"-quick", "-seed", "7", "-manifest", manifestPath, "-out", out, "-trace-dir", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stderr.String(), stdout.String())
	}
	var lines []resultLine
	for _, l := range strings.Split(stdout.String(), "\n") {
		if !strings.HasPrefix(l, "{") {
			continue
		}
		var rl resultLine
		if err := json.Unmarshal([]byte(l), &rl); err != nil {
			t.Fatalf("result line %q: %v", l, err)
		}
		lines = append(lines, rl)
	}
	if len(lines) != 2*len(m.Workloads) {
		t.Fatalf("%d result lines, want two for each of %d workloads", len(lines), len(m.Workloads))
	}
	for i, rl := range lines {
		want := m.EndToEnd
		if i%2 == 1 {
			want = m.PerLayer
		}
		name := m.Workloads[i/2].Name
		if !rl.Correct || rl.Failed != 0 || rl.Attempted < 1 {
			t.Errorf("%s: correct %v attempted %d failed %d", name, rl.Correct, rl.Attempted, rl.Failed)
		}
		if len(rl.Metrics) != len(want) {
			t.Errorf("%s: %d metrics, want %d", name, len(rl.Metrics), len(want))
		}
		for _, d := range want {
			v, ok := rl.Metrics[d.Name]
			if !ok || v.Unit != d.Unit {
				t.Errorf("%s: metric %s missing or in unit %q, want %q", name, d.Name, v.Unit, d.Unit)
			}
			if i%2 == 0 && v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, d.Name, v.Value)
			}
		}
	}
	res, err := readResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(m.Workloads) || res.Provenance.Seed != 7 || res.Provenance.GoVersion == "" {
		t.Errorf("results file holds %d workloads, provenance %+v", len(res.Workloads), res.Provenance)
	}
	for _, w := range m.Workloads {
		raw, err := os.ReadFile(filepath.Join(dir, "trace-"+w.Name+".json"))
		if err != nil {
			t.Error(err)
			continue
		}
		var tr struct{ Spans []span }
		if err := json.Unmarshal(raw, &tr); err != nil || len(tr.Spans) == 0 {
			t.Errorf("trace of %s: %d spans, %v", w.Name, len(tr.Spans), err)
		}
		for _, s := range tr.Spans {
			if s.EndUS < s.StartUS || s.Parent >= s.ID {
				t.Errorf("trace of %s: span %+v ends before it starts or precedes its parent", w.Name, s)
				break
			}
		}
	}

	// The same file against itself passes; a copy that lost a third of its
	// throughput, or whose results moved at all, does not.
	if code := run([]string{"-manifest", manifestPath, "-compare", out, out}, io.Discard, io.Discard); code != 0 {
		t.Errorf("-compare of a file with itself exits %d", code)
	}
	for _, spoil := range []func(map[string]measured){
		func(e map[string]measured) { v := e["throughput_per_s"]; v.Value *= 0.66; e["throughput_per_s"] = v },
		func(e map[string]measured) { v := e["result_ratio"]; v.Value *= 1.0001; e["result_ratio"] = v },
	} {
		worse, _ := readResults(out)
		spoil(worse.Workloads["serve_cold"].EndToEnd)
		path := filepath.Join(dir, "worse.json")
		if err := worse.write(path); err != nil {
			t.Fatal(err)
		}
		if code := run([]string{"-manifest", manifestPath, "-compare", out, path}, io.Discard, io.Discard); code != 1 {
			t.Errorf("-compare against a spoiled copy exits %d, want 1", code)
		}
	}
}

func TestUnknownMetricIsRefused(t *testing.T) {
	m, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	o := newOutcome("serve_mixed", phasePerLayer)
	o.Metrics["no.such_metric"] = 1
	if _, err := report(io.Discard, m, o); err == nil {
		t.Errorf("a metric BENCHMARK.json does not list was reported")
	}
	o = newOutcome("serve_mixed", phaseEndToEnd)
	o.Metrics["setup_s"] = 1
	if _, err := report(io.Discard, m, o); err == nil {
		t.Errorf("a correct end-to-end run that lacks metrics was reported")
	}
}

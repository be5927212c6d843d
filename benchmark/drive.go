package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flumen/internal/cluster"
	"flumen/internal/loadgen"
	"flumen/internal/registry"
	"flumen/internal/serve"
)

// fleet is the system under test: n in-process flumend instances on
// loopback and, for n > 1, a flumen-router in front of them.
// loadgen.StartHarness builds the same fleet but keeps its router to
// itself, and the cluster.* metrics are read from Router.Stats().
type fleet struct {
	backends   *cluster.Harness
	router     *cluster.Router
	stopRouter context.CancelFunc
	routerDone chan error
	url        string
}

func startFleet(n int, scfg serve.Config) (*fleet, error) {
	bs, err := cluster.StartBackends(n, scfg)
	if err != nil {
		return nil, err
	}
	f := &fleet{backends: bs, url: bs.URLs()[0]}
	if n > 1 {
		rcfg := cluster.DefaultConfig()
		rcfg.Addr = "127.0.0.1:0"
		rcfg.Backends = bs.URLs()
		rt, err := cluster.New(rcfg)
		if err != nil {
			bs.Stop()
			return nil, err
		}
		if err := rt.Listen(); err != nil {
			rt.Shutdown()
			bs.Stop()
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		f.router, f.stopRouter, f.routerDone = rt, cancel, make(chan error, 1)
		go func() { f.routerDone <- rt.Run(ctx) }()
		f.url = "http://" + rt.Addr()
	}
	return f, nil
}

func (f *fleet) stop() error {
	var err error
	if f.router != nil {
		f.stopRouter()
		err = <-f.routerDone
	}
	f.backends.Stop()
	return err
}

// register posts the specs to the fleet's entry point (the router fans a
// registration out to every backend) and returns once every backend has
// compiled and pinned them. loadgen.RegisterModels does the same with a
// 50 ms poll of /healthz; set-up time is a metric here, so this polls the
// in-process registries directly.
func (f *fleet) register(cl *http.Client, specs []*registry.Spec) error {
	for _, spec := range specs {
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		resp, err := cl.Post(f.url+"/v1/models", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("registering %s: %w", spec.Ref(), err)
		}
		msg, _ := io.ReadAll(resp.Body) // only quoted in the error below
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("registering %s: status %d: %s", spec.Ref(), resp.StatusCode, msg)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < f.backends.N(); i++ {
		for f.backends.Backend(i).Registry().Stats().PrewarmPending > 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("backend %d still prewarming after 30s", i)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}}
}

// reference is what every answer is checked against: the stream, its
// reference answers, and each answer's payload as encoding/json writes it.
type reference struct {
	st   *loadgen.Stream
	exp  []loadgen.Expected
	want [][]byte
	// decoded counts the 200s that did not hold their payload byte for
	// byte and had to be decoded: client time the timed phase should not
	// be spending.
	decoded atomic.Int64
}

func newReference(st *loadgen.Stream, exp []loadgen.Expected) (*reference, error) {
	ref := &reference{st: st, exp: exp, want: make([][]byte, len(exp))}
	for i := range exp {
		var (
			key     string
			payload any
		)
		switch {
		case exp[i].C != nil:
			key, payload = `"c":`, exp[i].C
		case exp[i].Output != nil:
			key, payload = `"output":`, exp[i].Output
		default:
			key, payload = `"logits":`, exp[i].Logits
		}
		raw, err := json.Marshal(payload)
		if err != nil {
			return nil, err
		}
		ref.want[i] = append([]byte(key), raw...)
		if exp[i].Logits != nil {
			ref.want[i] = append(ref.want[i], fmt.Sprintf(`,"class":%d`, exp[i].Class)...)
		}
	}
	return ref, nil
}

// verdict returns "" when the answer to request idx is a 200 that equals
// the reference bit for bit. encoding/json writes the shortest decimal that
// reads back as the same float64, so two payloads are equal bit for bit
// exactly when their encodings are equal byte for byte: the clients check
// an answer with one comparison of bytes and keep nothing. An answer
// written some other way is decoded and compared value by value.
func (ref *reference) verdict(idx, status int, body []byte, err error) string {
	switch {
	case err != nil:
		return "transport: " + err.Error()
	case status != http.StatusOK:
		return fmt.Sprintf("status %d: %.200s", status, body)
	case bytes.Contains(body, ref.want[idx]):
		return ""
	}
	ref.decoded.Add(1)
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return "undecodable answer: " + err.Error()
	}
	return diffAnswer(&a, &ref.exp[idx])
}

// shot is one request as the client saw it. Times are offsets from the
// start of the phase. In a closed loop due equals sent.
type shot struct {
	idx    int // index into the stream
	due    time.Duration
	sent   time.Duration
	done   time.Duration
	status int    // 0: no answer
	bad    string // why the answer is not correct; "" when it is
	size   int    // bytes of the answer
	body   []byte // kept for traced requests only, which carry the server's stages
}

// driver sends requests of ref's stream to url and checks the answers.
type driver struct {
	cl     *http.Client
	url    string
	ref    *reference
	traced bool // send X-Flumen-Trace: 1
}

func issue(cl *http.Client, url string, r *loadgen.Request, traced bool, into *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.HeaderRequestID, r.RequestID)
	if traced {
		req.Header.Set(serve.HeaderTrace, "1")
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	into.Reset()
	_, err = into.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// fire sends request idx and checks the answer; the clock stops before the
// check. buf is the calling client's own read buffer.
func (d driver) fire(buf *bytes.Buffer, idx int, due time.Duration, t0 time.Time) shot {
	s := shot{idx: idx, due: due, sent: time.Since(t0)}
	status, err := issue(d.cl, d.url, &d.ref.st.Requests[idx], d.traced, buf)
	s.done = time.Since(t0)
	s.status, s.size = status, buf.Len()
	if err != nil {
		s.status = 0
	}
	s.bad = d.ref.verdict(idx, status, buf.Bytes(), err)
	if d.traced && s.bad == "" {
		s.body = bytes.Clone(buf.Bytes())
	}
	return s
}

// closed runs a closed loop: each of clients goroutines sends its next
// request as soon as the previous one is answered. Requests are the first n
// of the stream in order, wrapping around, until limit requests were sent
// (limit > 0) or dur has passed (dur > 0). It returns the shots and the
// time from the first send to the last answer.
func (d driver) closed(n, clients, limit int, dur time.Duration) ([]shot, time.Duration) {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	per := make([][]shot, clients)
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				k := int(next.Add(1)) - 1
				if limit > 0 && k >= limit {
					return
				}
				now := time.Since(t0)
				if dur > 0 && now >= dur {
					return
				}
				per[c] = append(per[c], d.fire(&buf, k%n, now, t0))
			}
		}(c)
	}
	wg.Wait()
	return mergeShots(per), time.Since(t0)
}

// open runs an open loop over the first n requests of the stream: request
// i is due at its Arrival after the start whatever the answers do. At most
// clients requests are in flight; when all clients are busy the dispatcher
// waits, and because every latency is taken from the due time that wait is
// charged to the requests it delayed.
func (d driver) open(n, clients int) ([]shot, time.Duration) {
	work := make(chan int)
	per := make([][]shot, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for idx := range work {
				per[c] = append(per[c], d.fire(&buf, idx, d.ref.st.Requests[idx].Arrival, t0))
			}
		}(c)
	}
	for i := 0; i < n; i++ {
		if wait := d.ref.st.Requests[i].Arrival - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		work <- i
	}
	close(work)
	wg.Wait()
	return mergeShots(per), time.Since(t0)
}

func mergeShots(per [][]shot) []shot {
	var all []shot
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].due < all[j].due })
	return all
}

// traceRecord is the per-stage breakdown flumend returns in a response
// body under X-Flumen-Trace: 1 (the wire shape of trace.Record).
type traceRecord struct {
	ID      string             `json:"id"`
	Start   time.Time          `json:"start"`
	TotalMS float64            `json:"total_ms"`
	WallMS  float64            `json:"wall_stage_sum_ms"`
	Batched int                `json:"batched"`
	Stages  map[string]float64 `json:"stages"`
}

// answer is the union of the three endpoints' response bodies.
type answer struct {
	C       [][]float64   `json:"c"`
	Output  [][][]float64 `json:"output"`
	Logits  []float64     `json:"logits"`
	Class   int           `json:"class"`
	Batched int           `json:"batched"`
	Trace   *traceRecord  `json:"trace"`
}

// tally is the outcome of one phase.
type tally struct {
	sent      int
	ok        int       // 200 and bitwise-equal to the reference
	rejected  int       // 503s among the failures
	sloMiss   int       // failed, or slower than the limit from its due time
	latMS     []float64 // ascending; ok requests, from due time
	oks       []okShot  // ok requests in due order
	lateMS    []float64 // ascending; send time minus due time, all requests
	respBytes int
	batched   []float64 // requests per engine call, traced matmul answers only
	traced    []tracedShot
	firstBad  string
}

// okShot is a correctly answered request: when it was due and answered,
// as offsets from the start of the phase, and its latency from the due time.
type okShot struct {
	due, done time.Duration
	latMS     float64
}

type tracedShot struct {
	shot shot
	rec  traceRecord
}

func (t tally) failed() int { return t.sent - t.ok }

// tallyOf books the outcome of every shot. sloMS <= 0 disables the latency
// limit. Traced answers are decoded here, after the phase, for the server's
// stage breakdown.
func (ref *reference) tallyOf(shots []shot, sloMS float64) tally {
	t := tally{sent: len(shots)}
	for _, s := range shots {
		t.lateMS = append(t.lateMS, ms(s.sent-s.due))
		lat := ms(s.done - s.due)
		switch {
		case s.bad != "":
			if t.firstBad == "" {
				t.firstBad = fmt.Sprintf("request %s: %s", ref.st.Requests[s.idx].RequestID, s.bad)
			}
			if s.status == http.StatusServiceUnavailable {
				t.rejected++
			}
		default:
			t.ok++
			t.latMS = append(t.latMS, lat)
			t.oks = append(t.oks, okShot{due: s.due, done: s.done, latMS: lat})
			t.respBytes += s.size
		}
		if sloMS > 0 && (s.bad != "" || lat > sloMS) {
			t.sloMiss++
		}
		if s.body != nil {
			var a answer
			if err := json.Unmarshal(s.body, &a); err == nil && a.Trace != nil {
				if a.C != nil {
					t.batched = append(t.batched, float64(a.Batched))
				}
				s.body = nil
				t.traced = append(t.traced, tracedShot{shot: s, rec: *a.Trace})
			}
		}
	}
	sort.Float64s(t.latMS)
	sort.Float64s(t.lateMS)
	return t
}

// diffAnswer returns "" when the answer equals the reference bit for bit.
func diffAnswer(a *answer, want *loadgen.Expected) string {
	switch {
	case want.C != nil:
		return diffBits("c", flatten2(a.C), flatten2(want.C))
	case want.Output != nil:
		return diffBits("output", flatten3(a.Output), flatten3(want.Output))
	default:
		if a.Class != want.Class {
			return fmt.Sprintf("class %d, reference %d", a.Class, want.Class)
		}
		return diffBits("logits", a.Logits, want.Logits)
	}
}

func diffBits(name string, got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s has %d values, reference %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("%s value %d = %v, reference %v", name, i, got[i], want[i])
		}
	}
	return ""
}

func flatten2(m [][]float64) []float64 {
	var out []float64
	for _, row := range m {
		out = append(out, row...)
	}
	return out
}

func flatten3(v [][][]float64) []float64 {
	var out []float64
	for _, m := range v {
		out = append(out, flatten2(m)...)
	}
	return out
}

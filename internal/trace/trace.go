// Package trace is Flumen's lightweight per-request stage tracer. A Trace
// rides on one request from the router's candidate selection to the
// response write, accumulating wall time into a fixed set of stages. The
// design constraints are set by the serving hot path:
//
//   - Zero allocation when tracing is disabled: the job carries a nil
//     *Trace and every recording site is a nil check.
//   - Cheap when enabled: one allocation per request (the Trace itself), a
//     preallocated stage array, atomic adds, no maps and no locks on the
//     recording path. Atomics matter because the engine records lease-wait
//     and compute stages from concurrent partition workers.
//
// Server-side wall stages (decode, queue_wait, coalesce, exec, write)
// partition a request's end-to-end latency: each nanosecond of handler wall
// time lands in exactly one of them. The engine sub-stages (lease_wait,
// compute, and dac, propagate and detect inside compute) overlap exec —
// they are recorded per partition worker, so their sum can legitimately
// exceed wall time on a multi-partition fabric — and the router stages
// (router_select, router_hop) exist only in router traces. Aggregation fans
// out three ways: per-stage Prometheus histograms, a bounded ring of recent
// Records served at /debug/requests, and a slow-request log line above a
// configurable threshold.
package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one segment of a request's life. The numeric values
// index preallocated arrays; String gives the Prometheus label.
type Stage int

const (
	// StageRouterSelect is the router's candidate-selection time
	// (rendezvous hashing + health filtering).
	StageRouterSelect Stage = iota
	// StageRouterHop is backend attempt wall time at the router, summed
	// across spills and retries.
	StageRouterHop
	// StageDecode is request read + JSON decode + validation at flumend.
	StageDecode
	// StageQueueWait is time spent in the admission queue before the
	// executor (or the batcher) dequeued the job — including time a
	// handed-back batch head spent waiting behind the prior batch.
	StageQueueWait
	// StageCoalesce is time between a job's dequeue and its engine call
	// while the batcher gathered the rest of its fingerprint batch.
	StageCoalesce
	// StageExec is the engine call's wall time as seen by the executor.
	StageExec
	// StageLeaseWait is fabric-lease (or partition-pool) acquisition wait
	// inside the engine, accumulated per partition worker. Overlaps
	// StageExec; informational, not part of the wall-time partition.
	StageLeaseWait
	// StageCompute is per-partition photonic compute inside the engine,
	// plus CPU lowering (im2col) on the conv path. Overlaps StageExec.
	StageCompute
	// StageDAC, StagePropagate and StageDetect open StageCompute: the
	// call's DAC pass, each work item's transfer-matrix product (a faulted
	// item's matrix measurement included) and its detection chain (noise,
	// ADC, accumulation). Each overlaps StageExec and lies inside
	// StageCompute.
	StageDAC
	StagePropagate
	StageDetect
	// StageWrite is response serialization + write.
	StageWrite

	// NumStages sizes the per-trace stage arrays.
	NumStages
)

var stageNames = [NumStages]string{
	"router_select",
	"router_hop",
	"decode",
	"queue_wait",
	"coalesce",
	"exec",
	"lease_wait",
	"compute",
	"dac",
	"propagate",
	"detect",
	"write",
}

func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return stageNames[s]
}

// overlapsExec reports whether the stage is an engine sub-stage recorded
// inside StageExec's wall time (so it is excluded from WallSum).
func (s Stage) overlapsExec() bool {
	return s == StageLeaseWait || (s >= StageCompute && s <= StageDetect)
}

// Recorder receives stage durations. *Trace is the unit recorder; Group
// fans one engine call's stages out to every member of a coalesced batch.
type Recorder interface {
	Add(s Stage, d time.Duration)
}

// Trace accumulates one request's stage durations. All methods are safe on
// a nil receiver (a nil *Trace is "tracing disabled") and safe for
// concurrent use.
type Trace struct {
	id    string
	start time.Time

	durs    [NumStages]atomic.Int64 // nanoseconds
	spills  atomic.Int64
	retries atomic.Int64
	batched atomic.Int64
}

// New starts a trace identified by the request's X-Request-ID.
func New(id string) *Trace {
	return &Trace{id: id, start: time.Now()}
}

// Add accumulates d into stage s. Negative durations (clock weirdness) are
// dropped rather than corrupting the totals.
func (t *Trace) Add(s Stage, d time.Duration) {
	if t == nil || d <= 0 || s < 0 || s >= NumStages {
		return
	}
	t.durs[s].Add(int64(d))
}

// AddSpill counts a 503 spill to the next-preferred backend (router).
func (t *Trace) AddSpill() {
	if t != nil {
		t.spills.Add(1)
	}
}

// AddRetry counts a budget-bounded retry (router).
func (t *Trace) AddRetry() {
	if t != nil {
		t.retries.Add(1)
	}
}

// SetBatched records how many requests shared the job's engine call.
func (t *Trace) SetBatched(n int) {
	if t != nil {
		t.batched.Store(int64(n))
	}
}

// Start returns the trace's start time (zero for nil).
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Record snapshots the trace into an immutable Record. Total is measured
// from the trace's start; call it after the last stage of interest.
func (t *Trace) Record(endpoint string, status int) Record {
	rec := Record{
		ID:       t.id,
		Endpoint: endpoint,
		Status:   status,
		Start:    t.start,
		Total:    time.Since(t.start),
		Batched:  int(t.batched.Load()),
		Spills:   int(t.spills.Load()),
		Retries:  int(t.retries.Load()),
	}
	for s := Stage(0); s < NumStages; s++ {
		rec.Durs[s] = time.Duration(t.durs[s].Load())
	}
	return rec
}

// Group fans stage durations out to several traces — the members of one
// coalesced engine call. A Group never contains nil members.
type Group []*Trace

// Add implements Recorder for every member.
func (g Group) Add(s Stage, d time.Duration) {
	for _, t := range g {
		t.Add(s, d)
	}
}

type ctxKey struct{}

// NewContext returns ctx carrying rec, for recording sites (the engine)
// below the layer that owns the Trace.
func NewContext(ctx context.Context, rec Recorder) context.Context {
	return context.WithValue(ctx, ctxKey{}, rec)
}

// FromContext returns the Recorder carried by ctx, or nil. The single
// context lookup per engine call is the whole per-call cost of disabled
// tracing below the serve layer.
func FromContext(ctx context.Context) Recorder {
	rec, _ := ctx.Value(ctxKey{}).(Recorder)
	return rec
}

// Record is one finished trace: an immutable snapshot safe to copy, render,
// and retain in the ring.
type Record struct {
	ID       string
	Endpoint string
	Status   int
	Start    time.Time
	Total    time.Duration
	Batched  int
	Spills   int
	Retries  int
	Durs     [NumStages]time.Duration
}

// Duration returns the accumulated time of one stage.
func (r Record) Duration(s Stage) time.Duration {
	if s < 0 || s >= NumStages {
		return 0
	}
	return r.Durs[s]
}

// WallSum is the sum of the stages that partition wall time — every stage
// except the engine sub-stages that overlap exec. For a fully traced
// request it accounts for (nearly all of) Total; the gap is untraced glue.
func (r Record) WallSum() time.Duration {
	var sum time.Duration
	for s := Stage(0); s < NumStages; s++ {
		if !s.overlapsExec() {
			sum += r.Durs[s]
		}
	}
	return sum
}

// StageString renders the nonzero stages compactly for log lines, e.g.
// "decode=0.1ms queue_wait=2.3ms exec=11.0ms write=0.2ms".
func (r Record) StageString() string {
	var b strings.Builder
	for s := Stage(0); s < NumStages; s++ {
		if r.Durs[s] <= 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.1fms", s, float64(r.Durs[s])/1e6)
	}
	return b.String()
}

// recordJSON is the wire shape served at /debug/requests. Stage durations
// are milliseconds keyed by stage name; zero stages are omitted.
type recordJSON struct {
	ID           string             `json:"id"`
	Endpoint     string             `json:"endpoint,omitempty"`
	Status       int                `json:"status"`
	Start        time.Time          `json:"start"`
	TotalMS      float64            `json:"total_ms"`
	WallStageSum float64            `json:"wall_stage_sum_ms"`
	Batched      int                `json:"batched,omitempty"`
	Spills       int                `json:"spills,omitempty"`
	Retries      int                `json:"retries,omitempty"`
	Stages       map[string]float64 `json:"stages"`
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// MarshalJSON renders the record for /debug/requests. The map allocation
// happens only at serialization time, never on the recording path.
func (r Record) MarshalJSON() ([]byte, error) {
	stages := make(map[string]float64, NumStages)
	for s := Stage(0); s < NumStages; s++ {
		if r.Durs[s] > 0 {
			stages[s.String()] = ms(r.Durs[s])
		}
	}
	return json.Marshal(recordJSON{
		ID:           r.ID,
		Endpoint:     r.Endpoint,
		Status:       r.Status,
		Start:        r.Start,
		TotalMS:      ms(r.Total),
		WallStageSum: ms(r.WallSum()),
		Batched:      r.Batched,
		Spills:       r.Spills,
		Retries:      r.Retries,
		Stages:       stages,
	})
}

// Ring is a bounded buffer of the most recent Records. Push is O(1); the
// oldest record is overwritten once the ring is full.
type Ring struct {
	mu   sync.Mutex
	buf  []Record
	next int // index the next Push writes
	n    int // live records, ≤ len(buf)
}

// DefaultRingSize bounds /debug/requests memory when no size is configured.
const DefaultRingSize = 256

// NewRing returns a ring holding up to n records (n ≤ 0 uses the default).
func NewRing(n int) *Ring {
	if n <= 0 {
		n = DefaultRingSize
	}
	return &Ring{buf: make([]Record, n)}
}

// Push appends rec, evicting the oldest record when full.
func (r *Ring) Push(rec Record) {
	r.mu.Lock()
	r.buf[r.next] = rec
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Snapshot returns the ring's records newest-first.
func (r *Ring) Snapshot() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, 0, r.n)
	for i := 1; i <= r.n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

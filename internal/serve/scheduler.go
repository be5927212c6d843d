package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"flumen"
	"flumen/internal/trace"
)

// Admission and dispatch. Requests enter a bounded queue (backpressure: a
// full queue is an immediate error, never a block) and a single executor
// goroutine drains it. One executor is deliberate: the engine itself fans a
// call's block work items across every fabric partition, so running engine
// calls back to back keeps the fabric saturated while preserving the
// engine's bitwise determinism story. The executor's extra trick is the
// batcher (batcher.go): consecutive matmul jobs that share a weight
// fingerprint coalesce into one engine call.

var (
	// errQueueFull is returned by submit when the admission queue is at
	// capacity; the server maps it to 503 + Retry-After.
	errQueueFull = errors.New("serve: admission queue full")
	// errDraining is returned once shutdown has begun.
	errDraining = errors.New("serve: server draining")
)

// job is one admitted request. Exactly one of (key, m, x) — a batchable
// matmul — or run — an opaque direct execution (conv2d, infer) — is set.
type job struct {
	ctx      context.Context
	endpoint string
	enq      time.Time

	// Batchable matmul payload: key is the exact weight fingerprint.
	key string
	m   [][]float64
	x   [][]float64

	// Direct payload.
	run func(ctx context.Context) (any, error)

	// done receives exactly one result; buffered so the executor never
	// blocks on a handler that gave up.
	done chan jobResult

	// tr is the request's trace (nil = untraced; every recording site is a
	// nil check, so disabled tracing costs no allocations). mark is the
	// start of the stage the job is currently in, advanced by stage() —
	// executor-side only, so it never races the handler.
	tr   *trace.Trace
	mark time.Time
}

// stage attributes the time since the last mark to s and advances the mark.
// The executor calls it at each stage boundary: dequeue (queue_wait), engine
// call start (coalesce), engine call end (exec).
func (j *job) stage(s trace.Stage) {
	if j.tr == nil {
		return
	}
	now := time.Now()
	j.tr.Add(s, now.Sub(j.mark))
	j.mark = now
}

type jobResult struct {
	matmul  [][]float64 // matmul jobs
	direct  any         // direct jobs
	batched int         // requests sharing the engine call
	err     error
}

type scheduler struct {
	cfg Config
	acc *flumen.Accelerator
	met *metrics

	// mu guards closed and the queue send (a send racing close would
	// panic).
	mu     sync.RWMutex
	closed bool
	queue  chan *job
	// exited closes when the executor has drained the queue and returned.
	exited chan struct{}

	// baseCtx is the scheduler-lifetime context: every engine call derives
	// from it, so a drain that exhausts its budget can revoke in-flight work
	// instead of wedging shutdown behind a long engine call.
	baseCtx    context.Context
	baseCancel context.CancelFunc
}

func newScheduler(cfg Config, acc *flumen.Accelerator, met *metrics) *scheduler {
	s := &scheduler{
		cfg:    cfg,
		acc:    acc,
		met:    met,
		queue:  make(chan *job, cfg.QueueDepth),
		exited: make(chan struct{}),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	go s.runLoop()
	return s
}

// submit offers a job to the admission queue without blocking.
func (s *scheduler) submit(j *job) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return errDraining
	}
	select {
	case s.queue <- j:
		return nil
	default:
		return errQueueFull
	}
}

// depth reports the current queue occupancy.
func (s *scheduler) depth() int { return len(s.queue) }

// draining reports whether shutdown has begun.
func (s *scheduler) draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// drain stops admission and waits — up to ctx — for queued work to finish.
// Already-queued jobs still execute (graceful drain); the executor exits
// once the queue empties.
func (s *scheduler) drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	select {
	case <-s.exited:
		s.baseCancel()
		return nil
	case <-ctx.Done():
		// Drain budget exhausted: revoke the scheduler-lifetime context so
		// in-flight engine calls abort and the executor can exit, instead of
		// wedging shutdown behind work that outlives the budget.
		s.baseCancel()
		return ctx.Err()
	}
}

// runLoop is the executor: it pulls the queue head, skips jobs whose
// context is already done, coalesces batchable runs, and executes.
func (s *scheduler) runLoop() {
	defer close(s.exited)
	var pending *job // head handed back by the batcher
	for {
		j := pending
		pending = nil
		if j == nil {
			var ok bool
			j, ok = <-s.queue
			if !ok {
				return
			}
		}
		// Fresh dequeues book the time since admission as queue wait; a head
		// handed back by the batcher books the time it spent waiting behind
		// the prior batch's engine call — from the client's perspective both
		// are queueing.
		j.stage(trace.StageQueueWait)
		if err := j.ctx.Err(); err != nil {
			// Cancelled while queued: abandon without touching the fabric.
			s.met.observeCancelled()
			j.done <- jobResult{err: err}
			continue
		}
		if j.key == "" {
			s.executeDirect(j)
			continue
		}
		batch, next := s.collect(j)
		pending = next
		s.executeBatch(batch)
	}
}

// jobCtx bounds an engine call by both the request's context and the
// scheduler's lifetime, so an abandoned drain aborts work that the
// client-supplied context alone would keep alive.
func (s *scheduler) jobCtx(req context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(req)
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

func (s *scheduler) executeDirect(j *job) {
	ctx, cancel := s.jobCtx(j.ctx)
	defer cancel()
	start := time.Now()
	out, err := j.run(ctx)
	s.met.observeBatch(1, time.Since(start))
	j.stage(trace.StageExec)
	j.done <- jobResult{direct: out, batched: 1, err: err}
}

// batchTraceGroup collects the traces of a batch's members, or nil when no
// member is traced (the common case with tracing off: no allocation).
func batchTraceGroup(batch []*job) trace.Group {
	var g trace.Group
	for _, j := range batch {
		if j.tr != nil {
			g = append(g, j.tr)
		}
	}
	return g
}

// executeBatch runs one engine call for every live member of the batch and
// splits the result columns back out per request.
func (s *scheduler) executeBatch(batch []*job) {
	live := batch[:0]
	for _, j := range batch {
		if err := j.ctx.Err(); err != nil {
			s.met.observeCancelled()
			j.done <- jobResult{err: err}
			continue
		}
		live = append(live, j)
	}
	if len(live) == 0 {
		return
	}

	// A lone request keeps its own context so its deadline can abandon
	// dispatch mid-call; a coalesced batch must not let one impatient tenant
	// cancel its neighbours' work, so members' contexts are ignored — but it
	// still derives from the scheduler-lifetime context, so shutdown (unlike
	// a tenant) can abort it.
	ctx := s.baseCtx
	cancel := context.CancelFunc(func() {})
	if len(live) == 1 {
		ctx, cancel = s.jobCtx(live[0].ctx)
	} else if g := batchTraceGroup(live); g != nil {
		// A coalesced batch runs on the scheduler-lifetime context, which
		// carries no request trace; fan the members' traces back in so the
		// engine's lease-wait/compute stages land on every traced member.
		ctx = trace.NewContext(s.baseCtx, g)
	}
	defer cancel()

	// A batch of one goes to the engine as is: MatMulCtx reads m and x
	// during the call, never writes them, and returns fresh rows, so
	// nothing aliases and no column copy is needed.
	xAll := live[0].x
	if len(live) > 1 {
		xAll = concatColumns(live)
	}
	for _, j := range live {
		// Time from each member's dequeue to the shared engine call is
		// coalesce wait: draining the backlog and assembling the columns.
		j.stage(trace.StageCoalesce)
	}
	start := time.Now()
	c, err := s.acc.MatMulCtx(ctx, live[0].m, xAll)
	s.met.observeBatch(len(live), time.Since(start))
	for _, j := range live {
		j.stage(trace.StageExec)
	}
	if err != nil {
		for _, j := range live {
			j.done <- jobResult{err: err}
		}
		return
	}
	if len(live) == 1 {
		live[0].done <- jobResult{matmul: c, batched: 1}
		return
	}
	for i, j := range live {
		j.done <- jobResult{matmul: sliceColumns(c, live, i), batched: len(live)}
	}
}

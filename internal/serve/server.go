package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"flumen"
	"flumen/internal/registry"
	"flumen/internal/trace"
)

// Server is the flumend HTTP front end: handlers decode and validate
// requests, thread per-request deadlines as contexts, and hand work to the
// batching scheduler. Responsibilities split cleanly: the handler owns the
// client connection and its deadline; the scheduler owns the fabric.
type Server struct {
	cfg     Config
	acc     *flumen.Accelerator
	sched   *scheduler
	met     *metrics
	models  map[string]*inferModel
	reg     *registry.Registry
	ring    *trace.Ring // recent request traces, served at /debug/requests
	mux     *http.ServeMux
	handler http.Handler // mux wrapped with the identity middleware

	httpSrv *http.Server
	lis     net.Listener
}

// New builds a server (and its accelerator) from the config. The server is
// ready to use as an http.Handler immediately; Run additionally binds a
// listener and manages graceful drain.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	acc, err := flumen.NewAccelerator(cfg.Ports, cfg.BlockSize)
	if err != nil {
		return nil, err
	}
	if cfg.CacheSize != 0 {
		acc.SetProgramCacheSize(cfg.CacheSize)
	}
	if cfg.Precision > 0 {
		acc.SetPrecision(cfg.Precision)
	}
	if cfg.Health != nil {
		if err := acc.EnableHealthMonitor(*cfg.Health); err != nil {
			return nil, err
		}
	}

	s := &Server{
		cfg:    cfg,
		acc:    acc,
		met:    newMetrics(),
		models: buildModels(cfg.InferSeed),
		ring:   trace.NewRing(cfg.TraceRing),
		mux:    http.NewServeMux(),
	}
	// The registry opens after the cache size is final (SetProgramCacheSize
	// replaces the cache and would drop prewarm pins) and always runs —
	// without -store it is memory-only, so /v1/models and by-reference
	// requests work either way and only persistence is opt-in.
	reg, err := registry.Open(registry.Config{
		Dir:    cfg.StoreDir,
		Engine: acc,
		Logf:   log.Printf,
	})
	if err != nil {
		return nil, err
	}
	s.reg = reg
	s.sched = newScheduler(cfg, acc, s.met)

	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/matmul", s.handleMatMul)
	s.mux.HandleFunc("POST /v1/conv2d", s.handleConv2D)
	s.mux.HandleFunc("POST /v1/infer", s.handleInfer)
	s.mux.HandleFunc("POST /v1/models", s.handleModelRegister)
	s.mux.HandleFunc("GET /v1/models", s.handleModelList)
	s.mux.HandleFunc("DELETE /v1/models/{ref}", s.handleModelDelete)
	s.mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	if cfg.EnablePprof {
		// Index serves every named profile (heap, goroutine, mutex, block,
		// allocs) under the prefix; the four fixed handlers are the ones the
		// index cannot route itself.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.handler = s.identity(s.mux)
	s.httpSrv = &http.Server{Handler: s.handler}
	return s, nil
}

// identity stamps every response with this node's name and the request's
// correlation ID (client-supplied X-Request-ID, minted here when absent),
// so multi-node deployments can attribute any response — success or
// failure — to the backend that produced it.
func (s *Server) identity(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(HeaderRequestID)
		if id == "" {
			id = NewRequestID()
			r.Header.Set(HeaderRequestID, id)
		}
		w.Header().Set(HeaderRequestID, id)
		w.Header().Set(HeaderNode, s.cfg.NodeID)
		next.ServeHTTP(w, r)
	})
}

// Handler exposes the route table wrapped in the identity middleware (used
// directly by tests; Run wraps it in a managed listener).
func (s *Server) Handler() http.Handler { return s.handler }

// NodeID returns this instance's cluster identity (the X-Flumen-Node value).
func (s *Server) NodeID() string { return s.cfg.NodeID }

// Accelerator exposes the backing accelerator's public surface (read-only
// observation, e.g. Stats()).
func (s *Server) Accelerator() *flumen.Accelerator { return s.acc }

// Registry exposes the model registry (tests and tools inspect it; requests
// go through the /v1/models API).
func (s *Server) Registry() *registry.Registry { return s.reg }

// Addr returns the bound listen address once Run has started.
func (s *Server) Addr() string {
	if s.lis == nil {
		return s.cfg.Addr
	}
	return s.lis.Addr().String()
}

// Listen binds the configured address without serving yet, so callers can
// learn the bound port (Addr) before traffic starts.
func (s *Server) Listen() error {
	lis, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.lis = lis
	return nil
}

// Run serves until ctx is cancelled, then drains gracefully: the listener
// stops accepting, in-flight handlers get DrainTimeout to finish, and
// queued work is executed before the scheduler exits. Returns nil on a
// clean drain.
func (s *Server) Run(ctx context.Context) error {
	if s.lis == nil {
		if err := s.Listen(); err != nil {
			return err
		}
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.httpSrv.Serve(s.lis) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	shutdownErr := s.httpSrv.Shutdown(drainCtx)
	err := s.sched.drain(drainCtx)
	s.reg.Close()
	if err != nil {
		return fmt.Errorf("serve: drain incomplete: %w", err)
	}
	if shutdownErr != nil && !errors.Is(shutdownErr, http.ErrServerClosed) {
		return shutdownErr
	}
	return nil
}

// Close kills the server abruptly: the listener and every open connection
// are torn down and in-flight engine work is revoked, with none of Run's
// graceful drain. This is the failure-injection hook the cluster harness
// uses to simulate a crashed node (a SIGKILL, not a SIGTERM); Run returns
// http.ErrServerClosed on the killed instance.
func (s *Server) Close() error {
	err := s.httpSrv.Close()
	// Drain with an already-expired context: admission closes immediately
	// and the scheduler-lifetime context is revoked so queued and in-flight
	// work aborts instead of finishing.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	s.sched.drain(done)
	s.reg.Close()
	return err
}

// reqContext derives the request's execution context: the client connection
// context bounded by the requested (clamped) or default timeout. The clamp
// compares milliseconds before converting, since a timeout_ms past about
// 9.2e12 overflows time.Duration.
func (s *Server) reqContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	switch {
	case timeoutMS > s.cfg.MaxTimeout.Milliseconds():
		d = s.cfg.MaxTimeout
	case timeoutMS > 0:
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), d)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.met.start).Seconds(),
		QueueDepth:    s.sched.depth(),
		QueueCapacity: s.cfg.QueueDepth,
		Partitions:    s.acc.NumPartitions(),
		Draining:      s.sched.draining(),
	}
	if hs := s.acc.HealthStats(); hs.Enabled {
		resp.HealthyPartitions = hs.Healthy
		resp.QuarantinedPartitions = hs.Quarantined
		resp.RecalibratingPartitions = hs.Recalibrating
		if hs.Degraded() {
			// Degraded, not dead: the shrunken pool keeps serving, so the
			// probe stays 200 and the body says what is out of service.
			resp.Status = "degraded"
		}
	}
	rs := s.reg.Stats()
	resp.RegistryModels = rs.Models
	resp.PrewarmPending = rs.PrewarmPending
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.write(w, s.sched.depth(), s.cfg.QueueDepth, s.acc.Stats(), s.reg.Stats())
}

func (s *Server) handleMatMul(w http.ResponseWriter, r *http.Request) {
	tr := s.traceFor(r)
	var req MatMulRequest
	if !s.decodeBody(w, r, tr, "matmul", func(b []byte) error { return DecodeMatMul(b, &req, AllFields) }) {
		return
	}
	key := ""
	if req.Model != "" {
		// By-reference: the registered weights stand in for M and the
		// model's precomputed fingerprint stands in for hashing them, so the
		// request coalesces with inline requests carrying the same bits.
		if req.M != nil {
			s.reject(w, tr, "matmul", http.StatusBadRequest, CodeBadRequest, "pass either model or inline m, not both")
			return
		}
		mdl := s.resolveModel(w, tr, "matmul", req.Model, registry.KindMatMul)
		if mdl == nil {
			return
		}
		if err := validateMatMulX("model weights are", mdl.Spec.M, req.X); err != nil {
			s.reject(w, tr, "matmul", http.StatusBadRequest, CodeBadRequest, err.Error())
			return
		}
		req.M = mdl.Spec.M
		key = mdl.Spec.RoutingKey()
		s.met.observeByRef("matmul", mdl.Prewarmed())
	} else {
		if err := validateMatMul(&req); err != nil {
			s.reject(w, tr, "matmul", http.StatusBadRequest, CodeBadRequest, err.Error())
			return
		}
		key = WeightFingerprint(req.M)
	}
	s.dispatch(w, r, tr, req.TimeoutMS, &job{endpoint: "matmul", key: key, m: req.M, x: req.X},
		func(res jobResult, elapsedMS float64, rec *trace.Record) any {
			return MatMulResponse{C: res.matmul, Batched: res.batched, ElapsedMS: elapsedMS, Trace: rec}
		})
}

func (s *Server) handleConv2D(w http.ResponseWriter, r *http.Request) {
	tr := s.traceFor(r)
	var req Conv2DRequest
	if !s.decodeBody(w, r, tr, "conv2d", func(b []byte) error { return DecodeConv2D(b, &req, AllFields) }) {
		return
	}
	if req.Stride == 0 {
		req.Stride = 1
	}
	if req.Model != "" {
		// By-reference: the registered kernel stack replaces the inline one;
		// stride and pad stay per-request knobs. Substituting before the
		// shared validator keeps every input/kernel cross-check in force.
		if req.Kernels != nil {
			s.reject(w, tr, "conv2d", http.StatusBadRequest, CodeBadRequest, "pass either model or inline kernels, not both")
			return
		}
		mdl := s.resolveModel(w, tr, "conv2d", req.Model, registry.KindConv2D)
		if mdl == nil {
			return
		}
		req.Kernels = mdl.Spec.Kernels
		s.met.observeByRef("conv2d", mdl.Prewarmed())
	}
	if err := validateConv2D(&req); err != nil {
		s.reject(w, tr, "conv2d", http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	run := func(ctx context.Context) (any, error) {
		return s.acc.Conv2DCtx(ctx, req.Input, req.Kernels, req.Stride, req.Pad)
	}
	s.dispatch(w, r, tr, req.TimeoutMS, &job{endpoint: "conv2d", run: run},
		func(res jobResult, elapsedMS float64, rec *trace.Record) any {
			return Conv2DResponse{Output: res.direct.([][][]float64), ElapsedMS: elapsedMS, Trace: rec}
		})
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	tr := s.traceFor(r)
	var req InferRequest
	if !s.decodeBody(w, r, tr, "infer", func(b []byte) error { return DecodeInfer(b, &req, AllFields) }) {
		return
	}
	model, ok := s.models[req.Model]
	if !ok {
		// Not a built-in: try the registry ("name@version"; bare names
		// resolve @v1 there too, so registered models don't need the suffix
		// unless they shadow a built-in).
		mdl, err := s.reg.Resolve(req.Model)
		if err != nil {
			status, code := registryStatus(err)
			msg := err.Error()
			if errors.Is(err, registry.ErrUnknownModel) {
				msg = fmt.Sprintf("unknown model %q; built-in: %v", req.Model, modelNames(s.models))
			}
			s.reject(w, tr, "infer", status, code, msg)
			return
		}
		if mdl.Spec.Kind != registry.KindInfer {
			s.reject(w, tr, "infer", http.StatusBadRequest, CodeKindMismatch,
				"model "+mdl.Spec.Ref()+" is kind "+string(mdl.Spec.Kind)+", /v1/infer serves infer models")
			return
		}
		model = inferModelFromSpec(req.Model, mdl.Spec)
		s.met.observeByRef("infer", mdl.Prewarmed())
	}
	if err := model.checkInput(&req); err != nil {
		s.reject(w, tr, "infer", http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	run := func(ctx context.Context) (any, error) { return model.infer(ctx, s.acc, &req) }
	s.dispatch(w, r, tr, req.TimeoutMS, &job{endpoint: "infer", run: run},
		func(res jobResult, elapsedMS float64, rec *trace.Record) any {
			logits := res.direct.([]float64)
			return InferResponse{Model: req.Model, Logits: logits, Class: argmax(logits), ElapsedMS: elapsedMS, Trace: rec}
		})
}

// dispatch is the second half of every compute handler: it closes the
// decode stage, queues the job under the request's deadline, waits for it
// and writes the response that respond builds from the result. rec is the
// stage breakdown for the body, non-nil only on the header opt-in and
// snapshotted before the write.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, tr *trace.Trace, timeoutMS int64, j *job,
	respond func(res jobResult, elapsedMS float64, rec *trace.Record) any) {
	ctx, cancel := s.reqContext(r, timeoutMS)
	defer cancel()
	if tr != nil {
		// Everything up to here — body read, decode, validation, model
		// resolution — is the decode stage; the context carries the trace
		// down to the engine's lease-wait/compute hooks.
		tr.Add(trace.StageDecode, time.Since(tr.Start()))
		ctx = trace.NewContext(ctx, tr)
	}
	now := time.Now()
	j.ctx, j.enq, j.mark, j.tr, j.done = ctx, now, now, tr, make(chan jobResult, 1)
	if !s.admit(w, j) {
		return
	}
	res, ok := s.await(w, r, ctx, j)
	if !ok {
		return
	}
	tr.SetBatched(res.batched)
	var rec *trace.Record
	if tr != nil && wantTraceBody(r) {
		snap := tr.Record(j.endpoint, http.StatusOK)
		rec = &snap
	}
	resp := respond(res, float64(time.Since(j.enq).Microseconds())/1000, rec)
	wstart := time.Now()
	WriteJSON(w, http.StatusOK, resp)
	tr.Add(trace.StageWrite, time.Since(wstart))
	s.finishTrace(tr, j.endpoint, http.StatusOK)
}

// decode reads and unmarshals a registration body — the generic path, off
// the compute endpoints' — answering 400/413 itself like decodeBody.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	err := dec.Decode(dst)
	msg := "malformed JSON: trailing data after request object"
	switch {
	case errors.Is(err, io.EOF):
		msg = "malformed JSON: empty request body"
	case err != nil:
		msg = "malformed JSON: " + err.Error()
	default:
		if _, err = dec.Token(); errors.Is(err, io.EOF) {
			return true
		}
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeErrorCode(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge, fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
	} else {
		writeErrorCode(w, http.StatusBadRequest, CodeBadRequest, msg)
	}
	return false
}

// decodeBody reads a compute request's body into a pooled buffer and runs
// the endpoint's wire decoder over it, rejecting with 413 or 400 itself:
// every malformed body gets a structured {"error": ...} answer, never a bare
// 500, and an oversized one is cut off at MaxBodyBytes before it can balloon
// the heap. The buffer goes back to the pool as soon as decode returns:
// nothing decoded points into it.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, tr *trace.Trace, endpoint string, decode func([]byte) error) bool {
	buf := bodyPool.Get().(*bytes.Buffer)
	rerr := ReadBody(w, r, s.cfg.MaxBodyBytes, buf)
	var derr error
	if rerr == nil {
		derr = decode(buf.Bytes())
	}
	if buf.Cap() <= maxPooledBody {
		buf.Reset()
		bodyPool.Put(buf)
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(rerr, &tooLarge):
		s.reject(w, tr, endpoint, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
	case rerr != nil:
		s.reject(w, tr, endpoint, http.StatusBadRequest, CodeBadRequest, "reading request body: "+rerr.Error())
	case derr != nil:
		s.reject(w, tr, endpoint, http.StatusBadRequest, CodeBadRequest, "malformed JSON: "+derr.Error())
	}
	return rerr == nil && derr == nil
}

// admit submits the job, answering 503 + Retry-After on backpressure.
func (s *Server) admit(w http.ResponseWriter, j *job) bool {
	if err := s.sched.submit(j); err != nil {
		s.met.observeRejected()
		s.met.observeAdmission(j.endpoint, outcomeRejected)
		w.Header().Set("Retry-After", RetryAfterSecs(s.cfg.RetryAfter))
		msg, code := "admission queue full, retry later", CodeQueueFull
		if errors.Is(err, errDraining) {
			msg, code = "server draining", CodeDraining
		}
		s.answer(w, j.tr, j.endpoint, http.StatusServiceUnavailable, code, msg)
		return false
	}
	return true
}

// await blocks until the job completes or its context expires, mapping
// outcomes onto status codes. Returns (result, true) only on success.
func (s *Server) await(w http.ResponseWriter, r *http.Request, ctx context.Context, j *job) (jobResult, bool) {
	var res jobResult
	select {
	case res = <-j.done:
	case <-ctx.Done():
		res = jobResult{err: ctx.Err()}
	}
	elapsed := time.Since(j.enq)
	switch {
	case res.err == nil:
		s.met.observeRequest(j.endpoint, elapsed, outcomeOK)
		return res, true
	case errors.Is(res.err, context.DeadlineExceeded):
		s.met.observeRequest(j.endpoint, elapsed, outcomeDeadline)
		s.answer(w, j.tr, j.endpoint, http.StatusGatewayTimeout, CodeDeadline, "deadline exceeded")
	case errors.Is(res.err, context.Canceled):
		// Client cancellation, not a backend failure: booked under its own
		// outcome so it never pollutes the error counters and latency
		// histograms that feed timeout alerts.
		s.met.observeRequest(j.endpoint, elapsed, outcomeCancelled)
		if r.Context().Err() != nil {
			// The client connection is provably gone — nobody is left to
			// read a response, so skip the write entirely.
			s.finishTrace(j.tr, j.endpoint, StatusClientClosed)
			return res, false
		}
		// Cancelled with the client still connected (shutdown revoked
		// in-flight work): the 504 answer still says "cancelled", and the
		// router knows not to score it against this backend's health.
		s.answer(w, j.tr, j.endpoint, http.StatusGatewayTimeout, CodeCancelled, "request cancelled")
	default:
		// A registry resolution error that surfaced from the executor (a
		// model removed while the job was queued) is still a structured 404
		// with its stable code; anything else is a 500 "internal".
		s.met.observeRequest(j.endpoint, elapsed, outcomeError)
		status, code := registryStatus(res.err)
		s.answer(w, j.tr, j.endpoint, status, code, res.err.Error())
	}
	return res, false
}

// WriteJSON answers code with body encoded as JSON.
func WriteJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(body); err != nil {
		log.Printf("encoding response: %v", err)
	}
}

// RetryAfterSecs renders a Retry-After hint, rounded up to whole seconds
// with ceiling division: a 1400 ms backoff must hint "2", not "1", or
// clients retry before the hinted interval has passed and hit the same
// backpressure again. Floors at 1 second (the header has no sub-second
// form, and 0 reads as "retry immediately").
func RetryAfterSecs(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func writeErrorCode(w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, errorResponse{Error: msg, Code: code})
}

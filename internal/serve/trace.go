package serve

import (
	"log"
	"net/http"
	"time"

	"flumen/internal/trace"
)

// Server-side trace lifecycle. A request is traced when server-wide tracing
// is on (Config.TraceEnabled) or when it carries X-Flumen-Trace: 1; either
// way the handler owns the Trace, threads it to the scheduler on the job
// and to the engine through the request context, and finalizes it exactly
// once — into the per-stage histograms, the /debug/requests ring, and (past
// the threshold) the slow-request log.

// traceFor starts a trace for the request, or returns nil when it should
// run untraced. The identity middleware has already ensured X-Request-ID is
// set, so the trace ID always correlates with logs and the router's
// attempt records.
func (s *Server) traceFor(r *http.Request) *trace.Trace {
	if !s.cfg.TraceEnabled && r.Header.Get(HeaderTrace) != "1" {
		return nil
	}
	return trace.New(r.Header.Get(HeaderRequestID))
}

// wantTraceBody reports whether the client asked for the stage breakdown in
// the response body (the header opt-in; server-wide tracing alone keeps
// responses unchanged).
func wantTraceBody(r *http.Request) bool { return r.Header.Get(HeaderTrace) == "1" }

// finishTrace finalizes a completed trace: per-stage histograms, the recent
// ring, and the slow-request log. Safe on nil (untraced request).
func (s *Server) finishTrace(tr *trace.Trace, endpoint string, status int) {
	if tr == nil {
		return
	}
	rec := tr.Record(endpoint, status)
	s.met.observeStages(rec)
	s.ring.Push(rec)
	if s.cfg.SlowRequest > 0 && rec.Total >= s.cfg.SlowRequest {
		log.Printf("serve: slow request id=%s endpoint=%s status=%d total=%.1fms batched=%d %s",
			rec.ID, endpoint, status, float64(rec.Total)/1e6, rec.Batched, rec.StageString())
	}
}

// answer writes an error response, attributing the write to the request's
// trace and finalizing it. Success paths inline the same sequence in their
// handlers because the response body shape differs per endpoint.
func (s *Server) answer(w http.ResponseWriter, tr *trace.Trace, endpoint string, status int, code, msg string) {
	wstart := time.Now()
	writeErrorCode(w, status, code, msg)
	tr.Add(trace.StageWrite, time.Since(wstart))
	s.finishTrace(tr, endpoint, status)
}

// reject answers a request refused before admission — unreadable or
// malformed body, failed validation, unknown model — booking the time since
// the trace began as its decode stage, so a traced 400, 404 or 413 reaches
// the ring and the stage histograms like any other request.
func (s *Server) reject(w http.ResponseWriter, tr *trace.Trace, endpoint string, status int, code, msg string) {
	if tr != nil {
		tr.Add(trace.StageDecode, time.Since(tr.Start()))
	}
	s.answer(w, tr, endpoint, status, code, msg)
}

// handleDebugRequests serves the recent-trace ring, newest first. Always
// mounted: with tracing off the ring only holds header-opted requests, and
// an empty ring answers [].
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.ring.Snapshot())
}

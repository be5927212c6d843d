package cluster

import (
	"net/http"

	"flumen/internal/serve"
	"flumen/internal/trace"
)

// Router-side trace lifecycle. The router records its own view of a
// request — candidate selection time, per-hop round trips, spills, and
// retries — into the same stage taxonomy the backends use, so a traced
// request can be followed end to end: the router's ring shows where the
// fleet spent the time, the chosen backend's ring shows where the node
// did. The X-Flumen-Trace header is forwarded on proxied attempts, so a
// header-opted client gets the backend's stage breakdown in the response
// body with the router's hop accounting layered on top.

// traceFor starts a router-side trace for the request, or returns nil when
// it should run untraced (router-wide tracing off and no header opt-in).
func (rt *Router) traceFor(r *http.Request, reqID string) *trace.Trace {
	if !rt.cfg.TraceEnabled && r.Header.Get(serve.HeaderTrace) != "1" {
		return nil
	}
	return trace.New(reqID)
}

// finishTrace finalizes a router-side trace into the recent ring. Safe on
// nil (untraced request).
func (rt *Router) finishTrace(tr *trace.Trace, endpoint string, status int) {
	if tr == nil {
		return
	}
	rt.ring.Push(tr.Record(endpoint, status))
}

// handleDebugRequests serves the router's recent-trace ring, newest first.
func (rt *Router) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, rt.ring.Snapshot())
}

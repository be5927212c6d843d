package cluster

import (
	"context"
	"encoding/json"
	"log"
	"net/http"
	"strings"
	"time"

	"flumen/internal/registry"
	"flumen/internal/serve"
)

// Model management at the cluster layer. The router is not a registry — the
// backends own persistence — but it keeps a directory of every model
// registered through it, for two jobs:
//
//  1. By-reference routing. A "model": "name@version" request ships no
//     weight bytes to fingerprint, so the directory stores the routing key
//     computed once from the registration payload. By-name and inline
//     requests for the same weights therefore share a rendezvous key and
//     land on the same warm node.
//  2. Re-registration. POST /v1/models fans out to every reachable backend,
//     and when an ejected backend is readmitted (possibly a fresh process
//     with a memory-only registry), the stored payloads are replayed into
//     it before it takes by-reference traffic again.

// modelEntry is one model registered through this router.
type modelEntry struct {
	ref  string
	key  string // rendezvous routing key for by-reference requests
	body []byte // original registration payload, replayed on readmission
}

// normalizeRef appends the default version to bare model names, mirroring
// the backend registry's resolution rule.
func normalizeRef(ref string) string {
	if !strings.Contains(ref, "@") {
		return ref + "@v1"
	}
	return ref
}

func (rt *Router) lookupModel(ref string) *modelEntry {
	rt.modelsMu.Lock()
	defer rt.modelsMu.Unlock()
	if e, ok := rt.modelDir[ref]; ok {
		return e
	}
	if e, ok := rt.modelDir[normalizeRef(ref)]; ok {
		return e
	}
	return nil
}

// modelKey is the routing key for a by-reference request. Models registered
// through the router route by their weight fingerprint; unknown references
// (registered directly with a backend, or absent everywhere) route by the
// reference string so repeats still converge on one node — which then
// answers 200 or a structured 404 as appropriate.
func (rt *Router) modelKey(ref string) string {
	if e := rt.lookupModel(ref); e != nil {
		return e.key
	}
	return "model:" + normalizeRef(ref)
}

// currentState reads the backend's health state.
func (b *backend) currentState() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// handleModelRegister fans a registration out to every non-ejected backend.
// Success means at least one backend acked (the fleet converges: ejected
// nodes get the model replayed on readmission); a conflict or validation
// rejection from any backend is relayed as the answer, since the fleet must
// agree on what a ref means.
func (rt *Router) handleModelRegister(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	reqID := r.Header.Get(serve.HeaderRequestID)
	if reqID == "" {
		reqID = serve.NewRequestID()
	}
	w.Header().Set(serve.HeaderRequestID, reqID)

	body, ok := rt.readBody(w, r, "models", start, nil)
	if !ok {
		return
	}
	var spec registry.Spec
	if err := json.Unmarshal(body, &spec); err != nil {
		rt.answerError(w, "models", start, nil, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return
	}
	if err := spec.Validate(); err != nil {
		rt.answerError(w, "models", start, nil, http.StatusBadRequest, err.Error())
		return
	}
	ref, key := spec.Ref(), spec.RoutingKey()

	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	var acked, rejected *attemptResult
	acks := 0
	for _, b := range rt.pool.backends {
		if b.currentState() == StateEjected {
			continue // replay on readmission covers it
		}
		res := rt.send(ctx, b, "/v1/models", body, reqID, false)
		switch {
		case res.err != nil:
			// Unreachable now; readmission replay reconciles it later.
		case res.status == http.StatusOK || res.status == http.StatusCreated:
			acks++
			acked = &res
		default:
			rejected = &res
		}
	}
	if rejected != nil {
		// A backend refused (409 version conflict, 400 bad spec): surface
		// that verdict even if others acked, so the caller knows the fleet
		// is not uniformly serving this ref.
		rt.relay(w, "models", start, rejected, nil, nil)
		return
	}
	if acks == 0 {
		rt.answerError(w, "models", start, nil, http.StatusBadGateway, "no backend accepted the registration")
		return
	}
	rt.modelsMu.Lock()
	rt.modelDir[ref] = &modelEntry{ref: ref, key: key, body: body}
	rt.modelsMu.Unlock()
	rt.met.add(&rt.met.modelRegs, 1)
	rt.relay(w, "models", start, acked, nil, nil)
}

// handleModelList proxies the listing to the first reachable backend (the
// fleet converges on the same model set, so any healthy node's answer is
// the cluster's answer).
func (rt *Router) handleModelList(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	reqID := r.Header.Get(serve.HeaderRequestID)
	if reqID == "" {
		reqID = serve.NewRequestID()
	}
	w.Header().Set(serve.HeaderRequestID, reqID)

	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	order, _ := rt.pool.candidates("models")
	for _, b := range order {
		res := rt.sendMethod(ctx, b, http.MethodGet, "/v1/models", nil, reqID, false)
		if res.err == nil && res.status < 500 {
			rt.relay(w, "models", start, &res, nil, nil)
			return
		}
	}
	w.Header().Set("Retry-After", serve.RetryAfterSecs(rt.cfg.RetryAfter))
	rt.answerError(w, "models", start, nil, http.StatusServiceUnavailable, "no healthy backend available, retry later")
}

// handleModelDelete fans the removal out to every non-ejected backend and
// drops the directory entry, so readmission replay stops resurrecting it.
func (rt *Router) handleModelDelete(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	reqID := r.Header.Get(serve.HeaderRequestID)
	if reqID == "" {
		reqID = serve.NewRequestID()
	}
	w.Header().Set(serve.HeaderRequestID, reqID)
	ref := normalizeRef(r.PathValue("ref"))

	rt.modelsMu.Lock()
	delete(rt.modelDir, ref)
	rt.modelsMu.Unlock()

	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	var acked, last *attemptResult
	acks := 0
	for _, b := range rt.pool.backends {
		if b.currentState() == StateEjected {
			continue
		}
		res := rt.sendMethod(ctx, b, http.MethodDelete, "/v1/models/"+ref, nil, reqID, false)
		if res.err == nil {
			last = &res
			if res.status == http.StatusOK {
				acks++
				acked = &res
			}
		}
	}
	switch {
	case acked != nil:
		rt.relay(w, "models", start, acked, nil, nil)
	case last != nil:
		// Every answer was a miss (404 on each backend): relay the
		// structured not-found verbatim.
		rt.relay(w, "models", start, last, nil, nil)
	default:
		rt.answerError(w, "models", start, nil, http.StatusBadGateway, "no backend reachable for removal")
	}
}

// replayModels re-registers every directory model into a backend that just
// returned from ejection. A restarted memory-only backend comes back empty;
// a persistent one answers 200-idempotent to each replay. Runs async so the
// probe/request path that detected the readmission never blocks on N
// registration round trips.
func (rt *Router) replayModels(b *backend) {
	rt.modelsMu.Lock()
	entries := make([]*modelEntry, 0, len(rt.modelDir))
	for _, e := range rt.modelDir {
		entries = append(entries, e)
	}
	rt.modelsMu.Unlock()
	if len(entries) == 0 {
		return
	}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.RequestTimeout)
		defer cancel()
		for _, e := range entries {
			res := rt.sendMethod(ctx, b, http.MethodPost, "/v1/models", e.body, serve.NewRequestID(), false)
			if res.err != nil || res.status >= 300 {
				// The next readmission (or a client re-register) retries;
				// meanwhile the backend can still serve the model's requests
				// by 404ing them over to healthier candidates via spill.
				log.Printf("cluster: replaying model %s into %s failed (status %d, err %v)", e.ref, b.name, res.status, res.err)
				continue
			}
			rt.met.add(&rt.met.modelReplays, 1)
		}
	}()
}

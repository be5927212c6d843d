package serve

import (
	"errors"
	"net/http"
	"time"

	"flumen/internal/registry"
	"flumen/internal/trace"
)

// The model-management API:
//
//	POST   /v1/models        register a named+versioned model (idempotent)
//	GET    /v1/models        list registered models
//	DELETE /v1/models/{ref}  unregister "name@version" (bare name = @v1)
//
// Registration persists the spec to the -store directory (when configured),
// then a background prewarmer compiles and pins its block programs; the
// response reports the content digest and whether the model was newly
// created. Compute endpoints accept "model": "name@version" in place of
// inline weights.

// ModelRegisterResponse acknowledges a registration. Created is false when
// an identical spec was already registered under the same ref.
type ModelRegisterResponse struct {
	Model   registry.Info `json:"model"`
	Created bool          `json:"created"`
}

// ModelListResponse is the GET /v1/models body.
type ModelListResponse struct {
	Models []registry.Info `json:"models"`
}

func (s *Server) handleModelRegister(w http.ResponseWriter, r *http.Request) {
	var spec registry.Spec
	if !s.decode(w, r, &spec) {
		return
	}
	m, created, err := s.reg.Register(&spec)
	if err != nil {
		if errors.Is(err, registry.ErrConflict) {
			writeErrorCode(w, http.StatusConflict, CodeVersionConflict, err.Error())
			return
		}
		writeErrorCode(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	s.met.observeRegistration()
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	WriteJSON(w, status, ModelRegisterResponse{Model: modelInfo(m), Created: created})
}

func (s *Server) handleModelList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, ModelListResponse{Models: s.reg.List()})
}

func (s *Server) handleModelDelete(w http.ResponseWriter, r *http.Request) {
	ref := r.PathValue("ref")
	if err := s.reg.Remove(ref); err != nil {
		status, code := registryStatus(err)
		writeErrorCode(w, status, code, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"removed": ref})
}

// resolveModel looks up a by-reference model for a compute endpoint,
// rejecting the request itself (404 with a stable code for unknown
// name/version, 400 kind_mismatch when the model exists but belongs to a
// different endpoint). Returns nil if the response has been written.
func (s *Server) resolveModel(w http.ResponseWriter, tr *trace.Trace, endpoint, ref string, kind registry.Kind) *registry.Model {
	m, err := s.reg.Resolve(ref)
	if err != nil {
		status, code := registryStatus(err)
		s.reject(w, tr, endpoint, status, code, err.Error())
		return nil
	}
	if m.Spec.Kind != kind {
		s.reject(w, tr, endpoint, http.StatusBadRequest, CodeKindMismatch,
			"model "+m.Spec.Ref()+" is kind "+string(m.Spec.Kind)+", this endpoint serves "+string(kind))
		return nil
	}
	return m
}

// registryStatus maps registry resolution errors onto stable-code
// responses: unknown names and unknown versions are distinct 404s.
func registryStatus(err error) (status int, code string) {
	switch {
	case errors.Is(err, registry.ErrUnknownVersion):
		return http.StatusNotFound, CodeVersionMismatch
	case errors.Is(err, registry.ErrUnknownModel):
		return http.StatusNotFound, CodeUnknownModel
	}
	return http.StatusInternalServerError, CodeInternal
}

func modelInfo(m *registry.Model) registry.Info {
	return registry.Info{
		Name:       m.Spec.Name,
		Version:    m.Spec.Version,
		Kind:       m.Spec.Kind,
		Digest:     m.Digest,
		Bytes:      m.Bytes,
		Registered: m.Registered.Format(time.RFC3339),
		Prewarmed:  m.Prewarmed(),
	}
}

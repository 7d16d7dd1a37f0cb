package server

import (
	"errors"
	"net/http"
	"strings"

	"archline/internal/machine"
	"archline/internal/obs"
	"archline/internal/registry"
)

// Platform registry endpoints:
//
//	POST   /v1/platforms        upload (create or re-upload) a platform
//	GET    /v1/platforms/{id}   fetch the canonical description, with ETag/304
//	DELETE /v1/platforms/{id}   tombstone an uploaded platform
//
// Uploads stream through the strict machine.FromJSON validator straight
// off the size-limited request body, commit crash-safely through
// internal/registry, and answer with the entry's version and strong
// ETag. Re-uploading changed content bumps the version, and since every
// cache key built from a registry entry carries its version, no cached
// response for the old one is served again; re-uploading identical
// bytes is idempotent.

// platformUploadResponse is the upload acknowledgement.
type platformUploadResponse struct {
	ID      string `json:"id"`
	Version uint64 `json:"version"`
	ETag    string `json:"etag"`
	// Outcome is "created", "updated", or "unchanged".
	Outcome string `json:"outcome"`
}

func (s *Server) handlePlatformUpload(w http.ResponseWriter, r *http.Request) (any, *apiError) {
	// FromJSON streams from the body (already wrapped by MaxBytesReader),
	// so an oversized or malformed upload fails without ever buffering.
	plat, err := machine.FromJSON(r.Body)
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return nil, errTooLarge(maxErr.Limit)
		}
		return nil, errBadRequest("bad platform description: %v", err)
	}
	e, outcome, rerr := s.registry.Put(plat)
	if aerr := registryError(rerr, string(plat.ID)); aerr != nil {
		return nil, aerr
	}
	span := obs.SpanFrom(r.Context())
	span.Event("registry.upload", obs.String("id", e.ID),
		obs.Int("version", int(e.Version)), obs.String("outcome", outcome.String()))
	w.Header().Set("ETag", e.ETag)
	w.Header().Set("Location", "/v1/platforms/"+e.ID)
	status := http.StatusOK
	if outcome == registry.PutCreated {
		status = http.StatusCreated
	}
	resp, merr := marshalResponse(status, platformUploadResponse{
		ID: e.ID, Version: e.Version, ETag: e.ETag, Outcome: outcome.String(),
	})
	if merr != nil {
		return nil, errInternal("encoding response: %v", merr)
	}
	return resp, nil
}

func (s *Server) handlePlatformGet(w http.ResponseWriter, r *http.Request) (any, *apiError) {
	id := r.PathValue("id")
	e, err := s.registry.Get(id)
	if err != nil {
		return nil, errNotFound("unknown platform %q (GET /v1/platforms lists the registry)", id)
	}
	w.Header().Set("ETag", e.ETag)
	if matchesETag(r.Header.Get("If-None-Match"), e.ETag) {
		w.WriteHeader(http.StatusNotModified)
		return nil, nil
	}
	// Serve the canonical bytes the ETag hashes, never a re-encoding.
	body := make([]byte, 0, len(e.Canonical)+1)
	body = append(append(body, e.Canonical...), '\n')
	return &cachedResponse{status: http.StatusOK, body: body}, nil
}

func (s *Server) handlePlatformDelete(w http.ResponseWriter, r *http.Request) (any, *apiError) {
	id := r.PathValue("id")
	if err := s.registry.Delete(id); err != nil {
		if errors.Is(err, registry.ErrNotFound) {
			return nil, errNotFound("unknown platform %q", id)
		}
		return nil, registryError(err, id)
	}
	obs.SpanFrom(r.Context()).Event("registry.delete", obs.String("id", id))
	w.WriteHeader(http.StatusNoContent)
	return nil, nil
}

// registryError maps the registry's sentinel failures onto the API
// error space.
func registryError(err error, id string) *apiError {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, registry.ErrReadOnly):
		return errConflict("platform %q is a built-in Table I entry and read-only", id)
	case errors.Is(err, registry.ErrNoData):
		return errRegistryReadOnly()
	case errors.Is(err, registry.ErrCrashed):
		// Unreachable outside tests (crash injection is test-only), but
		// map it defensively rather than claiming an internal bug.
		return errInternal("registry write interrupted")
	default:
		return errInternal("registry: %v", err)
	}
}

// matchesETag reports whether an If-None-Match header value matches the
// entry's strong ETag: "*" matches anything, otherwise any member of
// the comma-separated list must match under the weak comparison RFC
// 9110 §13.1.2 prescribes for If-None-Match, which ignores a W/ prefix
// (proxies that compress a body often weaken its strong tag).
func matchesETag(header, etag string) bool {
	header = strings.TrimSpace(header)
	if header == "" {
		return false
	}
	if header == "*" {
		return true
	}
	for _, candidate := range strings.Split(header, ",") {
		if strings.TrimPrefix(strings.TrimSpace(candidate), "W/") == etag {
			return true
		}
	}
	return false
}

package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"archline/internal/obs"
)

// handlerFunc is the internal handler shape: return a value to encode as
// JSON (may be a *cachedResponse for pre-encoded bodies) or an apiError.
type handlerFunc func(w http.ResponseWriter, r *http.Request) (any, *apiError)

// methodHandlers maps HTTP methods to handlers for one route pattern.
// A request with a method outside the map gets 405 plus the RFC
// 9110-required Allow header listing what the pattern does support.
type methodHandlers map[string]handlerFunc

// allowList renders a methodHandlers' Allow header value: the supported
// methods, sorted so the header is deterministic.
func allowList(methods methodHandlers) string {
	names := make([]string, 0, len(methods))
	for m := range methods {
		names = append(names, m)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// apiError is a structured endpoint failure carrying its HTTP status.
type apiError struct {
	Status  int
	Code    string
	Message string
}

// Error implements error.
func (e *apiError) Error() string { return e.Message }

func errBadRequest(format string, args ...any) *apiError {
	return &apiError{Status: http.StatusBadRequest, Code: "bad_request", Message: fmt.Sprintf(format, args...)}
}

func errNotFound(format string, args ...any) *apiError {
	return &apiError{Status: http.StatusNotFound, Code: "not_found", Message: fmt.Sprintf(format, args...)}
}

func errMethodNotAllowed(method string) *apiError {
	return &apiError{Status: http.StatusMethodNotAllowed, Code: "method_not_allowed",
		Message: fmt.Sprintf("method %s not allowed on this endpoint", method)}
}

func errTooLarge(limit int64) *apiError {
	return &apiError{Status: http.StatusRequestEntityTooLarge, Code: "body_too_large",
		Message: fmt.Sprintf("request body exceeds the %d-byte limit", limit)}
}

func errConflict(format string, args ...any) *apiError {
	return &apiError{Status: http.StatusConflict, Code: "conflict", Message: fmt.Sprintf(format, args...)}
}

// errRegistryReadOnly is a 403 (not 503: the daemon is healthy and the
// circuit breaker must not count it) for mutations against a registry
// with no backing data directory.
func errRegistryReadOnly() *apiError {
	return &apiError{Status: http.StatusForbidden, Code: "registry_read_only",
		Message: "platform uploads need durable storage: start archlined with -data-dir"}
}

func errTimeout() *apiError {
	return &apiError{Status: http.StatusGatewayTimeout, Code: "deadline_exceeded",
		Message: "request exceeded its processing deadline"}
}

func errInternal(format string, args ...any) *apiError {
	return &apiError{Status: http.StatusInternalServerError, Code: "internal", Message: fmt.Sprintf(format, args...)}
}

// errorEnvelope is the wire form of every failure.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Status  int    `json:"status"`
	Message string `json:"message"`
}

// cachedResponse is one encoded response body ready to serve. The
// identity body is the canonical form; the gzip encoding is derived
// from it on first demand (gzipped) and kept beside it, so a cache hit
// never compresses again.
type cachedResponse struct {
	status   int
	body     []byte
	gzipOnce sync.Once
	gzipBody []byte
}

// marshalResponse encodes v with a trailing newline (curl-friendly).
func marshalResponse(status int, v any) (*cachedResponse, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return &cachedResponse{status: status, body: append(body, '\n')}, nil
}

// statusRecorder captures the response status for metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the status before delegating.
func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

// Flush forwards streaming flushes: wrapping the ResponseWriter hides
// its http.Flusher, and the NDJSON sweep stream needs each chunk pushed
// to the client as it completes.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// requestIDHeader is the header archlined reads a caller-supplied
// request ID from and echoes the effective ID back on.
const requestIDHeader = "X-Request-Id"

// reqSeq backs the fallback request-ID generator.
var reqSeq atomic.Uint64

// newRequestID mints a 16-hex-char request ID, falling back to a
// process-local sequence if the system entropy source fails.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		return hex.EncodeToString(b[:])
	}
	return fmt.Sprintf("req-%d", reqSeq.Add(1))
}

// serveInstrumented runs one handler under the full middleware stack:
// request-ID propagation, span + structured access log, in-flight
// accounting, latency/status metrics labelled by the route pattern,
// method enforcement, request body limits, a context deadline, and
// panic containment.
func (s *Server) serveInstrumented(pattern string, methods methodHandlers, w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.noteInFlight(1)
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}

	// Request identity: adopt the caller's X-Request-Id (or mint one)
	// and echo it on the response, so one ID ties together the client's
	// records, the access log, and the span tree.
	reqID := r.Header.Get(requestIDHeader)
	if reqID == "" {
		reqID = newRequestID()
	}
	rec.Header().Set(requestIDHeader, reqID)
	ctx := obs.WithRequestID(r.Context(), reqID)
	if s.tracer != nil {
		ctx = obs.WithTracer(ctx, s.tracer)
	}
	ctx, span := obs.Start(ctx, "http."+pattern,
		obs.String("method", r.Method), obs.String("request_id", reqID))
	defer span.End()
	r = r.WithContext(ctx)

	// Registered after span.End (LIFO), so the final status lands on the
	// span before it exports, after the recover below rewrites it.
	defer func() {
		s.metrics.noteInFlight(-1)
		d := time.Since(start)
		s.metrics.noteRequest(pattern, rec.status, d)
		span.SetAttr(obs.Int("status", rec.status))
		s.log.LogAttrs(ctx, slog.LevelInfo, "request",
			slog.String("endpoint", pattern), slog.String("method", r.Method),
			slog.Int("status", rec.status), slog.Float64("dur_s", d.Seconds()))
	}()

	// Resilience gates for /v1 routes (liveness and metrics stay open):
	// shed past the in-flight ceiling, fail fast while the breaker is
	// open, and feed every admitted request's outcome back into it.
	if !isShedExempt(pattern) {
		if s.cfg.MaxInFlight > 0 && s.metrics.InFlight() > int64(s.cfg.MaxInFlight) {
			s.metrics.noteShed()
			span.Event("shed", obs.Int("max_in_flight", s.cfg.MaxInFlight))
			s.log.LogAttrs(ctx, slog.LevelWarn, "load shed",
				slog.String("endpoint", pattern), slog.Int("max_in_flight", s.cfg.MaxInFlight))
			rec.Header().Set("Retry-After", retryAfterHeader(time.Second))
			writeError(rec, errShed())
			return
		}
		ok, retry := s.breaker.allow()
		if !ok {
			span.Event("breaker.reject", obs.Float("retry_after_s", retry.Seconds()))
			s.log.LogAttrs(ctx, slog.LevelWarn, "breaker reject",
				slog.String("endpoint", pattern))
			rec.Header().Set("Retry-After", retryAfterHeader(retry))
			writeError(rec, errBreakerOpen())
			return
		}
		// Registered before the panic recover below, so the recover
		// (LIFO) rewrites rec.status first and the breaker sees the 500.
		defer func() {
			if s.breaker.record(rec.status >= http.StatusInternalServerError) {
				span.Event("breaker.open")
				s.log.LogAttrs(ctx, slog.LevelWarn, "circuit breaker opened",
					slog.String("endpoint", pattern))
			}
		}()
	}
	defer func() {
		if p := recover(); p != nil {
			span.Event("panic", obs.String("value", fmt.Sprint(p)))
			s.log.LogAttrs(ctx, slog.LevelError, "handler panic",
				slog.String("endpoint", pattern), slog.String("panic", fmt.Sprint(p)))
			writeError(rec, errInternal("handler panic: %v", p))
		}
	}()

	h := methods[r.Method]
	if h == nil {
		rec.Header().Set("Allow", allowList(methods))
		writeError(rec, errMethodNotAllowed(r.Method))
		return
	}
	if !isShedExempt(pattern) {
		aerr, slowed := s.chaos.intercept()
		if slowed {
			span.Event("chaos.slow")
		}
		if aerr != nil {
			s.metrics.noteChaos()
			span.Event("chaos.fail")
			s.log.LogAttrs(ctx, slog.LevelWarn, "chaos injected failure",
				slog.String("endpoint", pattern))
			writeError(rec, aerr)
			return
		}
	}
	if r.Body != nil {
		r.Body = http.MaxBytesReader(rec, r.Body, s.cfg.MaxBodyBytes)
	}
	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	r = r.WithContext(ctx)

	v, aerr := h(rec, r)
	if aerr != nil {
		writeError(rec, aerr)
		return
	}
	if v == nil {
		return // handler wrote the response itself (e.g. /metrics)
	}
	resp, ok := v.(*cachedResponse)
	if !ok {
		var err error
		resp, err = marshalResponse(http.StatusOK, v)
		if err != nil {
			writeError(rec, errInternal("encoding response: %v", err))
			return
		}
	}
	writeResponseNegotiated(rec, r, resp)
}

// writeResponse emits an encoded body with JSON headers.
func writeResponse(w http.ResponseWriter, resp *cachedResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.status)
	// A failed write means the client went away; there is no recovery
	// path and the status is already recorded.
	_, _ = w.Write(resp.body)
}

// writeError emits the structured error envelope.
func writeError(w http.ResponseWriter, aerr *apiError) {
	resp, err := marshalResponse(aerr.Status, errorEnvelope{Error: errorBody{
		Code:    aerr.Code,
		Status:  aerr.Status,
		Message: aerr.Message,
	}})
	if err != nil {
		// The envelope is marshal-safe by construction; keep a plain-text
		// fallback anyway.
		http.Error(w, aerr.Message, aerr.Status)
		return
	}
	writeResponse(w, resp)
}

// decodeBody strictly decodes a JSON request body into dst, translating
// size-limit and deadline failures into their structured statuses.
// Only a clean end of body may follow the document: a second document,
// a stray '}' or ']', and bytes past the size limit are all refused.
func (s *Server) decodeBody(r *http.Request, dst any) *apiError {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		if _, err = dec.Token(); errors.Is(err, io.EOF) {
			return nil
		}
		if err == nil {
			return errBadRequest("request body holds more than one JSON document")
		}
	}
	var maxErr *http.MaxBytesError
	switch {
	case errors.As(err, &maxErr):
		return errTooLarge(maxErr.Limit)
	case errors.Is(err, context.DeadlineExceeded):
		return errTimeout()
	default:
		return errBadRequest("malformed JSON body: %v", err)
	}
}

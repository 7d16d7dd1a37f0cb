// Package server implements archlined, the HTTP/JSON query service over
// the energy-roofline engine. It exposes the capped model of eqs. (1)-(7),
// the Table I platform database, and the what-if scenario machinery as a
// long-running daemon, so interactive clients can query time, energy, and
// power predictions instead of re-running the one-shot CLI.
//
// Endpoints:
//
//	GET  /v1/platforms                      Table I database
//	GET  /v1/platforms/{id}/roofline        eq. (1)-(7) sweep over intensity
//	POST /v1/query                          time/energy/power at (W, Q) or I
//	POST /v1/batch                          N query items, one round-trip
//	POST /v1/sweep/stream                   NDJSON roofline sweep, flushed in chunks
//	POST /v1/compare                        fig. 1 crossover analysis
//	POST /v1/whatif                         throttle / bound / aggregate scenarios
//	POST /v1/fit                            submit an async measure→fit job (202 + job ID)
//	GET  /v1/jobs/{id}                      poll a job; terminal body carries the fit
//	GET  /v1/jobs/{id}/events               follow job progress as NDJSON
//	DELETE /v1/jobs/{id}                    cancel a queued or running job
//	GET  /healthz                           liveness
//	GET  /metrics                           counters, latency quantiles, cache stats
//
// Every buffered /v1 response is a pure function of the request, so the
// server keeps an LRU cache keyed on the canonicalized request and
// deduplicates concurrent identical computations singleflight-style: N
// simultaneous requests for the same sweep cost one model evaluation,
// and the N items of one /v1/batch flow through the same cache and
// flight group item by item. Responses negotiate gzip via
// Accept-Encoding. The package uses only the Go standard library.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"archline/internal/jobs"
	"archline/internal/obs"
	"archline/internal/registry"
)

// Config tunes the daemon.
type Config struct {
	// Addr is the listen address (host:port). Port 0 picks an ephemeral
	// port; the bound address is printed on startup.
	Addr string
	// MaxBodyBytes caps request body size; larger bodies get 413.
	MaxBodyBytes int64
	// RequestTimeout bounds each request's handling via its context.
	RequestTimeout time.Duration
	// CacheEntries is the response LRU capacity (entries, not bytes).
	CacheEntries int
	// DrainTimeout bounds the graceful-shutdown drain of in-flight
	// requests.
	DrainTimeout time.Duration
	// MaxInFlight caps concurrent requests before /v1 load shedding
	// answers 429 + Retry-After. Zero means DefaultMaxInFlight;
	// negative disables shedding.
	MaxInFlight int
	// ChaosProfile, when set to a fault-profile name ("paper",
	// "harsh"), turns on the chaos middleware: seeded synthetic 500s
	// and latency spikes on /v1 routes. Never enabled implicitly; ""
	// and "none" mean off.
	ChaosProfile string
	// ChaosSeed seeds the chaos draws for reproducible chaos runs.
	ChaosSeed uint64
	// TraceWriter, when non-nil, receives every finished span as one
	// NDJSON line (the archlined -trace-log flag). Nil disables tracing.
	TraceWriter io.Writer
	// LogWriter, when non-nil, receives structured JSON log records
	// (slog). Nil silences the structured log; the plain-text startup
	// announcements on stdout/stderr are unaffected.
	LogWriter io.Writer
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints are a diagnostic surface, not part of
	// the public API.
	EnablePprof bool
	// JobWorkers bounds how many async fit jobs execute concurrently.
	// Zero takes the jobs-package default (2, clamped to the CPU count).
	JobWorkers int
	// JobQueueDepth caps how many submitted jobs may wait beyond the
	// running ones; a submit past the cap is shed with 429. Zero takes
	// the jobs-package default; negative disables queueing entirely.
	JobQueueDepth int
	// JobTTL is how long finished jobs stay pollable before eviction.
	// Zero takes the jobs-package default (15 minutes).
	JobTTL time.Duration
	// DataDir, when set, is the persistent platform-registry directory
	// (the archlined -data-dir flag): uploaded platforms are committed
	// there crash-safely and recovered on startup. Empty keeps the
	// registry in memory — built-ins still resolve through it, but
	// POST /v1/platforms answers 503.
	DataDir string
}

// Defaults for zero Config fields.
const (
	DefaultAddr           = ":8080"
	DefaultMaxBodyBytes   = 1 << 20 // 1 MiB: platform JSON is ~1 KiB
	DefaultRequestTimeout = 10 * time.Second
	DefaultCacheEntries   = 512
	DefaultDrainTimeout   = 5 * time.Second
)

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = DefaultAddr
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = DefaultCacheEntries
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = DefaultMaxInFlight
	}
	return c
}

// Server is the archlined service: routing, response cache, in-flight
// deduplication, and metrics.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	cache    *lruCache
	flights  *flightGroup
	metrics  *Metrics
	breaker  *circuitBreaker
	jobs     *jobs.Engine
	registry *registry.Registry
	chaos    *chaosInjector
	tracer   *obs.Tracer // nil unless Config.TraceWriter is set
	log      *slog.Logger
	// initErr holds a construction failure (e.g. an unknown chaos
	// profile); Run surfaces it before listening.
	initErr error

	// testHookEval, when set before the server starts, runs inside every
	// model evaluation (cache-miss compute). Tests use it to hold a
	// request in flight.
	testHookEval func()
}

// New builds a Server from the config (zero fields take defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		cache:   newLRUCache(cfg.CacheEntries),
		flights: newFlightGroup(),
		metrics: NewMetrics(),
		breaker: newCircuitBreaker(nil),
		jobs: jobs.New(jobs.Config{
			Workers:    cfg.JobWorkers,
			QueueDepth: cfg.JobQueueDepth,
			TTL:        cfg.JobTTL,
		}),
	}
	s.chaos, s.initErr = newChaosInjector(cfg.ChaosProfile, cfg.ChaosSeed, nil)
	// The registry is the single platform-resolution path: built-ins
	// always, plus durable uploads when a data directory is configured.
	// Shard count 0 selects registry.DefaultShards.
	var regErr error
	if cfg.DataDir != "" {
		s.registry, regErr = registry.Open(cfg.DataDir, 0)
	} else {
		s.registry, regErr = registry.OpenMemory(0)
	}
	if regErr != nil {
		if s.initErr == nil {
			s.initErr = regErr
		}
		// Keep the server structurally complete so tests and embedders
		// holding a *Server never nil-deref; Run refuses to start.
		s.registry, _ = registry.OpenMemory(0)
	}
	if s.registry != nil {
		s.metrics.registryProbe = s.registry.Stats
	}
	s.metrics.breakerProbe = s.breaker.snapshot
	s.metrics.jobsProbe = s.jobs.Stats
	if cfg.TraceWriter != nil {
		s.tracer = obs.NewTracer(cfg.TraceWriter)
		s.metrics.tracerProbe = s.tracer.Stats
	}
	if cfg.LogWriter != nil {
		s.log, s.metrics.logProbe = obs.NewCountedLogger(cfg.LogWriter)
	} else {
		s.log = obs.NopLogger()
	}
	s.handle("/healthz", methodHandlers{"GET": s.handleHealthz})
	s.handle("/metrics", methodHandlers{"GET": s.handleMetrics})
	s.handle("/v1/platforms", methodHandlers{"GET": s.handlePlatforms, "POST": s.handlePlatformUpload})
	s.handle("/v1/platforms/{id}", methodHandlers{"GET": s.handlePlatformGet, "DELETE": s.handlePlatformDelete})
	s.handle("/v1/platforms/{id}/roofline", methodHandlers{"GET": s.handleRoofline})
	s.handle("/v1/query", methodHandlers{"POST": s.handleQuery})
	s.handle("/v1/batch", methodHandlers{"POST": s.handleBatch})
	s.handle("/v1/sweep/stream", methodHandlers{"POST": s.handleSweepStream})
	s.handle("/v1/compare", methodHandlers{"POST": s.handleCompare})
	s.handle("/v1/whatif", methodHandlers{"POST": s.handleWhatIf})
	s.handle("/v1/fit", methodHandlers{"POST": s.handleFitSubmit})
	s.handle("/v1/jobs/{id}", methodHandlers{"GET": s.handleJobGet, "DELETE": s.handleJobCancel})
	s.handle("/v1/jobs/{id}/events", methodHandlers{"GET": s.handleJobEvents})
	if cfg.EnablePprof {
		// Mounted raw (no serveInstrumented): pprof handlers stream for
		// seconds and must not count against the request timeout, the
		// shed ceiling, or the latency metrics.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.mux.HandleFunc("/", s.handleNotFound)
	return s
}

// Handler returns the fully wrapped HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's metrics registry (for tests and embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// ModelEvals reports how many cache-missed model evaluations have run —
// the observable the dedup/cache tests assert on.
func (s *Server) ModelEvals() int64 { return s.metrics.ModelEvals() }

// noteEval records one underlying model evaluation.
func (s *Server) noteEval() {
	s.metrics.noteEval()
	if s.testHookEval != nil {
		s.testHookEval()
	}
}

// handle registers one endpoint with the standard middleware stack:
// metrics instrumentation, method enforcement (405 + Allow for methods
// outside the map), body size limit, panic recovery, and a per-request
// timeout.
func (s *Server) handle(pattern string, methods methodHandlers) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		s.serveInstrumented(pattern, methods, w, r)
	})
}

// handleNotFound is the catch-all for unrouted paths, keeping 404s in
// the JSON envelope format. The handler is keyed on the request's own
// method so the 404 (never a 405) is what unrouted paths answer.
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	s.serveInstrumented("other", methodHandlers{
		r.Method: func(_ http.ResponseWriter, r *http.Request) (any, *apiError) {
			return nil, errNotFound("no such endpoint %q", r.URL.Path)
		},
	}, w, r)
}

// cachedJSON serves a pure-function endpoint: cache lookup, singleflight
// dedup of concurrent identical computations, then compute + fill. The
// key must canonicalize the request (two equivalent requests map to one
// key), so cache hits return byte-identical bodies.
func (s *Server) cachedJSON(key string, compute func() (any, *apiError)) (*cachedResponse, *apiError) {
	if resp, ok := s.cache.get(key); ok {
		s.metrics.noteCache(true)
		return resp, nil
	}
	s.metrics.noteCache(false)
	return s.flights.do(key, func() (*cachedResponse, *apiError) {
		// A concurrent flight may have filled the cache while this call
		// waited on the flight lock.
		if resp, ok := s.cache.get(key); ok {
			return resp, nil
		}
		v, aerr := compute()
		if aerr != nil {
			return nil, aerr
		}
		resp, err := marshalResponse(http.StatusOK, v)
		if err != nil {
			return nil, errInternal("encoding response: %v", err)
		}
		s.cache.put(key, resp)
		return resp, nil
	})
}

// Run listens on cfg.Addr, serves until ctx is cancelled (the caller
// wires SIGINT/SIGTERM into ctx), then shuts down gracefully, draining
// in-flight requests for at most cfg.DrainTimeout. The bound address is
// printed to stdout as "archlined listening on http://<addr>" so callers
// can use port 0.
func (s *Server) Run(ctx context.Context, stdout, stderr io.Writer) error {
	if s.initErr != nil {
		return fmt.Errorf("server: %w", s.initErr)
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	_, _ = fmt.Fprintf(stdout, "archlined listening on http://%s\n", ln.Addr())
	if s.cfg.DataDir != "" {
		rec := s.registry.Recovery()
		_, _ = fmt.Fprintf(stdout,
			"archlined: registry %s: recovered %d uploaded platform(s), %d tombstone(s), quarantined %d, pruned %d\n",
			s.cfg.DataDir, rec.Loaded, rec.Tombstones, rec.Quarantined, rec.Pruned)
		s.log.LogAttrs(ctx, slog.LevelInfo, "registry recovered",
			slog.String("data_dir", s.cfg.DataDir), slog.Int("loaded", rec.Loaded),
			slog.Int("tombstones", rec.Tombstones), slog.Int("quarantined", rec.Quarantined),
			slog.Int("pruned", rec.Pruned))
	}
	if s.chaos != nil {
		_, _ = fmt.Fprintf(stdout, "archlined: CHAOS MODE enabled (profile %s, seed %d)\n",
			s.cfg.ChaosProfile, s.cfg.ChaosSeed)
	}
	s.log.LogAttrs(ctx, slog.LevelInfo, "listening",
		slog.String("addr", ln.Addr().String()),
		slog.Bool("chaos", s.chaos != nil), slog.Bool("pprof", s.cfg.EnablePprof))
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return fmt.Errorf("server: serve: %w", err)
	case <-ctx.Done():
	}
	_, _ = fmt.Fprintln(stderr, "archlined: shutdown requested, draining in-flight requests")
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	s.log.LogAttrs(dctx, slog.LevelInfo, "draining",
		slog.Float64("timeout_s", s.cfg.DrainTimeout.Seconds()))
	// Jobs drain first: running fit jobs get most of the budget to
	// finish (stragglers are canceled through their contexts), and a
	// draining job engine closes its event streams, which unblocks any
	// in-flight /v1/jobs/{id}/events requests before srv.Shutdown waits
	// on them. The front-loaded slice keeps time in reserve for the
	// HTTP drain itself.
	jctx, jcancel := context.WithTimeout(dctx, s.cfg.DrainTimeout*4/5)
	jerr := s.jobs.Close(jctx)
	jcancel()
	if jerr != nil {
		_, _ = fmt.Fprintln(stderr, "archlined: job drain:", jerr)
		s.log.LogAttrs(dctx, slog.LevelWarn, "job drain incomplete",
			slog.String("error", jerr.Error()))
	}
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("server: drain: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("server: serve: %w", err)
	}
	_, _ = fmt.Fprintln(stderr, "archlined: drained, bye")
	s.log.LogAttrs(dctx, slog.LevelInfo, "drained")
	return nil
}

// Run builds a server from cfg and runs it until ctx is cancelled; see
// (*Server).Run.
func Run(ctx context.Context, cfg Config, stdout, stderr io.Writer) error {
	return New(cfg).Run(ctx, stdout, stderr)
}

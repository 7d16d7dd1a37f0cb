package server

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"archline/internal/faults"
	"archline/internal/stats"
)

// Resilience layer: archlined's defenses against overload and its own
// failures, mirroring the fault-hardening of the measurement stack.
//
//   - Load shedding: past a configurable in-flight ceiling, /v1
//     requests are refused immediately with 429 + Retry-After rather
//     than queueing until every client times out.
//   - Circuit breaker: when the recent /v1 error rate crosses a
//     threshold, the breaker opens and fails fast with 503 +
//     Retry-After for a cooldown, then half-opens to probe with a
//     single request before closing again.
//   - Chaos middleware: an explicitly-flagged fault injector for the
//     daemon itself (enveloped 500s and latency spikes on /v1 routes),
//     driven by the same seeded profiles as the measurement faults, so
//     the breaker and shedding paths can be exercised end to end.
//
// Liveness (/healthz) and observability (/metrics) are exempt from all
// three: an operator must be able to see a struggling daemon.

// Resilience settings. The in-flight ceiling is a default
// (Config.MaxInFlight); the breaker's four are fixed.
const (
	// DefaultMaxInFlight is the in-flight request ceiling beyond which
	// /v1 traffic is shed.
	DefaultMaxInFlight = 256
	// DefaultBreakerWindow is the rolling window over which the error
	// rate is measured.
	DefaultBreakerWindow = 10 * time.Second
	// DefaultBreakerErrRate is the 5xx fraction that opens the breaker.
	DefaultBreakerErrRate = 0.5
	// DefaultBreakerMinSamples is the minimum window population before
	// the error rate is trusted.
	DefaultBreakerMinSamples = 16
	// DefaultBreakerCooldown is how long an open breaker fails fast
	// before probing.
	DefaultBreakerCooldown = 2 * time.Second
)

// isShedExempt reports whether a route pattern bypasses shedding, the
// breaker, and chaos injection.
func isShedExempt(pattern string) bool {
	return !strings.HasPrefix(pattern, "/v1")
}

func errShed() *apiError {
	return &apiError{Status: http.StatusTooManyRequests, Code: "overloaded",
		Message: "server is shedding load; retry after the indicated delay"}
}

func errBreakerOpen() *apiError {
	return &apiError{Status: http.StatusServiceUnavailable, Code: "breaker_open",
		Message: "circuit breaker is open after repeated failures; retry after the indicated delay"}
}

func errChaos() *apiError {
	return &apiError{Status: http.StatusInternalServerError, Code: "chaos_injected",
		Message: "chaos middleware injected a synthetic failure"}
}

// breakerState enumerates the circuit breaker's states.
type breakerState int

// Breaker states.
const (
	breakerClosed breakerState = iota
	breakerHalfOpen
	breakerOpen
)

// String names the state.
func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// circuitBreaker is a global breaker over /v1 requests: it watches the
// 5xx rate in a rolling window and fails fast while open. The clock is
// injectable so tests never wait out a real cooldown.
type circuitBreaker struct {
	now func() time.Time

	mu          sync.Mutex
	state       breakerState
	windowStart time.Time
	successes   int
	failures    int
	openedAt    time.Time
	probing     bool // a half-open probe is in flight
	opens       int64
}

func newCircuitBreaker(now func() time.Time) *circuitBreaker {
	if now == nil {
		now = time.Now
	}
	return &circuitBreaker{now: now}
}

// allow decides whether a /v1 request may proceed. When the breaker is
// open it returns false plus the remaining cooldown for Retry-After;
// after the cooldown it admits exactly one half-open probe.
func (b *circuitBreaker) allow() (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, 0
	case breakerHalfOpen:
		if b.probing {
			return false, DefaultBreakerCooldown
		}
		b.probing = true
		return true, 0
	default: // open
		remaining := DefaultBreakerCooldown - b.now().Sub(b.openedAt)
		if remaining > 0 {
			return false, remaining
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true, 0
	}
}

// record feeds one finished /v1 request's outcome back into the
// breaker. It reports whether this outcome transitioned the breaker to
// open, so the caller can narrate the event.
func (b *circuitBreaker) record(serverFailure bool) (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	if b.state == breakerHalfOpen {
		b.probing = false
		if serverFailure {
			// The probe failed: back to open for a fresh cooldown.
			b.state = breakerOpen
			b.openedAt = now
			b.opens++
			return true
		}
		// Recovery confirmed: close and start a clean window.
		b.state = breakerClosed
		b.windowStart = now
		b.successes, b.failures = 0, 0
		return false
	}
	if b.state == breakerOpen {
		return false // rejected traffic never reaches here; stray results ignored
	}
	if b.windowStart.IsZero() || now.Sub(b.windowStart) > DefaultBreakerWindow {
		b.windowStart = now
		b.successes, b.failures = 0, 0
	}
	if serverFailure {
		b.failures++
	} else {
		b.successes++
	}
	total := b.successes + b.failures
	if total >= DefaultBreakerMinSamples && float64(b.failures)/float64(total) >= DefaultBreakerErrRate {
		b.state = breakerOpen
		b.openedAt = now
		b.opens++
		return true
	}
	return false
}

// snapshot returns the state and open count for metrics.
func (b *circuitBreaker) snapshot() (breakerState, int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.opens
}

// chaosInjector injects synthetic daemon failures on /v1 routes: a
// fraction of requests get an enveloped 500, another fraction a latency
// spike. Rates derive from the shared fault profiles, and draws come
// from a seeded stream, so a chaos run is as reproducible as a fault-
// injected measurement run.
type chaosInjector struct {
	errRate   float64
	slowRate  float64
	slowDelay time.Duration
	sleep     func(time.Duration)

	mu  sync.Mutex
	rng *stats.Stream
}

// newChaosInjector builds an injector for a named profile; "" and
// "none" mean disabled (nil injector).
func newChaosInjector(profile string, seed uint64, sleep func(time.Duration)) (*chaosInjector, error) {
	prof, err := faults.ByName(profile)
	if err != nil {
		return nil, err
	}
	if !prof.Enabled() {
		return nil, nil
	}
	if sleep == nil {
		sleep = time.Sleep
	}
	// Map the measurement-fault magnitudes onto request-level chaos:
	// disconnects become injected 500s, dropped windows become latency.
	return &chaosInjector{
		errRate:   prof.DisconnectProb,
		slowRate:  prof.DropRate,
		slowDelay: 20 * time.Millisecond,
		sleep:     sleep,
		rng:       stats.NewStream(seed^0xc4a05, "chaos/"+prof.Name),
	}, nil
}

// intercept decides the fate of one /v1 request: a synthetic failure
// (returned as an apiError), a latency spike (slept here, reported via
// slowed), or nothing.
func (c *chaosInjector) intercept() (aerr *apiError, slowed bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	fail := c.rng.Float64() < c.errRate
	slow := c.rng.Float64() < c.slowRate
	c.mu.Unlock()
	if fail {
		return errChaos(), false
	}
	if slow {
		c.sleep(c.slowDelay)
		return nil, true
	}
	return nil, false
}

// retryAfterHeader formats a Retry-After value: whole seconds, rounded
// up, at least 1.
func retryAfterHeader(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

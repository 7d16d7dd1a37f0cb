package faults

import (
	"fmt"
	"time"

	"archline/internal/powermon"
	"archline/internal/stats"
)

// Backoff is an exponential retry schedule with multiplicative jitter.
// The zero value is usable and falls back to the defaults below.
type Backoff struct {
	// Base is the first delay. Default 10ms.
	Base time.Duration
	// Max caps any single delay. Default 500ms.
	Max time.Duration
	// Factor multiplies the delay each attempt. Default 2.
	Factor float64
	// Jitter spreads each delay uniformly over ±Jitter of its nominal
	// value, drawn from a seeded stream so schedules stay reproducible.
	// Zero means the default 0.2; set negative to disable jitter.
	Jitter float64
	// Attempts is the total number of tries (first call included).
	// Default 4.
	Attempts int
}

// Backoff defaults.
const (
	defaultBase     = 10 * time.Millisecond
	defaultMax      = 500 * time.Millisecond
	defaultFactor   = 2.0
	defaultJitter   = 0.2
	defaultAttempts = 4
)

func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = defaultBase
	}
	if b.Max <= 0 {
		b.Max = defaultMax
	}
	if b.Factor < 1 {
		b.Factor = defaultFactor
	}
	switch {
	case b.Jitter < 0:
		b.Jitter = 0 // explicitly disabled
	case b.Jitter == 0 || b.Jitter >= 1:
		b.Jitter = defaultJitter
	}
	if b.Attempts < 1 {
		b.Attempts = defaultAttempts
	}
	return b
}

// Delay returns the jittered delay before retry number attempt (the
// delay after the attempt-th failure, starting at 1). The jitter draw
// comes from rng, so a seeded stream yields an identical schedule every
// run; a nil rng yields the un-jittered nominal delays.
func (b Backoff) Delay(attempt int, rng *stats.Stream) time.Duration {
	b = b.withDefaults()
	if attempt < 1 {
		attempt = 1
	}
	d := float64(b.Base)
	for i := 1; i < attempt; i++ {
		d *= b.Factor
		if d >= float64(b.Max) {
			d = float64(b.Max)
			break
		}
	}
	if d > float64(b.Max) {
		d = float64(b.Max)
	}
	if rng != nil && b.Jitter > 0 {
		d *= 1 + b.Jitter*(2*rng.Float64()-1)
	}
	return time.Duration(d)
}

// RetryNotify runs op until it succeeds, fails permanently, or the
// attempt budget is exhausted. Only transient errors
// (powermon.IsTransient) are retried; anything else returns
// immediately. After each transient failure it computes the jittered
// backoff delay and hands it to notify (when non-nil) with the failed
// attempt number (1-based) and the error being retried, then to sleep
// (when non-nil). Callers use notify to emit retry events onto a span
// without the retry loop knowing anything about tracing.
//
// A nil sleep means no wait: the delay is reported but lives on the
// simulated clock. The injector's disconnect episode ends after
// Profile.DisconnectBurst failed attempts, not after any wall time, so
// waiting the delay out would only stretch the run. Tests pass a
// recording stub. It returns the number of retries performed and the
// final error (nil on success; the last transient error wrapped with
// context if the budget runs out).
func RetryNotify(b Backoff, sleep func(time.Duration), rng *stats.Stream,
	notify func(attempt int, delay time.Duration, err error), op func() error) (retries int, err error) {
	b = b.withDefaults()
	for attempt := 1; ; attempt++ {
		err = op()
		if err == nil || !powermon.IsTransient(err) {
			return retries, err
		}
		if attempt >= b.Attempts {
			return retries, fmt.Errorf("faults: gave up after %d attempts: %w", b.Attempts, err)
		}
		delay := b.Delay(attempt, rng)
		if notify != nil {
			notify(attempt, delay, err)
		}
		if sleep != nil {
			sleep(delay)
		}
		retries++
	}
}

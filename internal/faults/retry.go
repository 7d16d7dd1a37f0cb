package faults

import (
	"fmt"
	"time"

	"archline/internal/powermon"
	"archline/internal/stats"
)

// The retry schedule: exponential backoff with multiplicative jitter.
// The first delay is backoffBase, each later one backoffFactor times
// the last, capped at backoffMax, and each is spread uniformly over
// ±backoffJitter of its nominal value. retryAttempts counts every try,
// the first included.
const (
	backoffBase   = 10 * time.Millisecond
	backoffMax    = 500 * time.Millisecond
	backoffFactor = 2.0
	backoffJitter = 0.2
	retryAttempts = 4
)

// backoffDelay returns the jittered delay before retry number attempt (the
// delay after the attempt-th failure, starting at 1). The jitter draw
// comes from rng, so a seeded stream yields an identical schedule every
// run; a nil rng yields the un-jittered nominal delays.
func backoffDelay(attempt int, rng *stats.Stream) time.Duration {
	d := float64(backoffBase)
	for i := 1; i < attempt; i++ {
		d *= backoffFactor
		if d >= float64(backoffMax) {
			d = float64(backoffMax)
			break
		}
	}
	if rng != nil {
		d *= 1 + backoffJitter*(2*rng.Float64()-1)
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
func RetryNotify(sleep func(time.Duration), rng *stats.Stream,
	notify func(attempt int, delay time.Duration, err error), op func() error) (retries int, err error) {
	for attempt := 1; ; attempt++ {
		err = op()
		if err == nil || !powermon.IsTransient(err) {
			return retries, err
		}
		if attempt >= retryAttempts {
			return retries, fmt.Errorf("faults: gave up after %d attempts: %w", retryAttempts, err)
		}
		delay := backoffDelay(attempt, rng)
		if notify != nil {
			notify(attempt, delay, err)
		}
		if sleep != nil {
			sleep(delay)
		}
		retries++
	}
}

package faults

import (
	"errors"
	"testing"
	"time"

	"archline/internal/powermon"
	"archline/internal/stats"
)

// fakeClock records requested sleeps without ever blocking.
type fakeClock struct{ slept []time.Duration }

func (c *fakeClock) sleep(d time.Duration) { c.slept = append(c.slept, d) }

func TestRetrySucceedsAfterTransients(t *testing.T) {
	clock := &fakeClock{}
	calls := 0
	retries, err := RetryNotify(Backoff{}, clock.sleep, stats.NewStream(42, "retry"), nil, func() error {
		calls++
		if calls < 3 {
			return powermon.ErrDisconnect
		}
		return nil
	})
	if err != nil {
		t.Fatalf("RetryNotify: %v", err)
	}
	if retries != 2 || calls != 3 {
		t.Errorf("retries = %d, calls = %d; want 2, 3", retries, calls)
	}
	if len(clock.slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(clock.slept))
	}
	// Delays grow and respect the jitter envelope around base*factor^k.
	for i, d := range clock.slept {
		nominal := float64(defaultBase) * pow(defaultFactor, i)
		lo := time.Duration(nominal * (1 - defaultJitter))
		hi := time.Duration(nominal * (1 + defaultJitter))
		if d < lo || d > hi {
			t.Errorf("delay[%d] = %v, want within [%v, %v]", i, d, lo, hi)
		}
	}
}

func pow(f float64, k int) float64 {
	out := 1.0
	for i := 0; i < k; i++ {
		out *= f
	}
	return out
}

func TestRetryPermanentErrorNotRetried(t *testing.T) {
	clock := &fakeClock{}
	calls := 0
	retries, err := RetryNotify(Backoff{}, clock.sleep, nil, nil, func() error {
		calls++
		return powermon.ErrNoChannels
	})
	if !errors.Is(err, powermon.ErrNoChannels) {
		t.Errorf("err = %v, want ErrNoChannels", err)
	}
	if retries != 0 || calls != 1 || len(clock.slept) != 0 {
		t.Errorf("permanent error retried: retries=%d calls=%d sleeps=%d", retries, calls, len(clock.slept))
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	clock := &fakeClock{}
	b := Backoff{Attempts: 3}
	retries, err := RetryNotify(b, clock.sleep, nil, nil, func() error { return powermon.ErrDisconnect })
	if !errors.Is(err, powermon.ErrDisconnect) {
		t.Errorf("exhausted err = %v, want wrapped ErrDisconnect", err)
	}
	if !powermon.IsTransient(err) {
		t.Error("exhausted error must stay errors.Is-able as transient")
	}
	if retries != 2 || len(clock.slept) != 2 {
		t.Errorf("retries = %d, sleeps = %d; want 2, 2", retries, len(clock.slept))
	}
}

func TestDelayCapsAtMax(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: 300 * time.Millisecond, Factor: 2, Jitter: -1}
	if d := b.Delay(10, nil); d != 300*time.Millisecond {
		t.Errorf("Delay(10) = %v, want capped 300ms", d)
	}
	if d := b.Delay(1, nil); d != 100*time.Millisecond {
		t.Errorf("Delay(1) = %v, want base 100ms", d)
	}
}

func TestJitterDeterministicUnderSeededStream(t *testing.T) {
	// Identical streams must yield identical jittered schedules; no
	// wall-clock randomness may leak in.
	mk := func() []time.Duration {
		rng := stats.NewStream(7, "jitter")
		b := Backoff{}
		var ds []time.Duration
		for a := 1; a <= 5; a++ {
			ds = append(ds, b.Delay(a, rng))
		}
		return ds
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delay[%d]: %v vs %v — jitter not deterministic", i, a[i], b[i])
		}
	}
	// And a different label diverges.
	other := Backoff{}.Delay(1, stats.NewStream(7, "other"))
	if other == a[0] {
		t.Error("distinct streams produced identical jitter (suspicious)")
	}
}

func TestRetryNeverSleepsOnSuccess(t *testing.T) {
	clock := &fakeClock{}
	retries, err := RetryNotify(Backoff{}, clock.sleep, nil, nil, func() error { return nil })
	if err != nil || retries != 0 || len(clock.slept) != 0 {
		t.Errorf("success path slept: retries=%d sleeps=%d err=%v", retries, len(clock.slept), err)
	}
}

// TestRetryNilSleepDoesNotWait pins the simulated clock: with no sleep
// the delays are still computed and reported, but none is waited out,
// so an hour-long schedule returns at once.
func TestRetryNilSleepDoesNotWait(t *testing.T) {
	b := Backoff{Base: time.Hour, Max: time.Hour, Jitter: -1}
	var delays []time.Duration
	calls := 0
	start := time.Now()
	retries, err := RetryNotify(b, nil, nil,
		func(_ int, d time.Duration, _ error) { delays = append(delays, d) },
		func() error {
			calls++
			if calls < 3 {
				return powermon.ErrDisconnect
			}
			return nil
		})
	if err != nil || retries != 2 {
		t.Fatalf("retries = %d, err = %v; want 2, nil", retries, err)
	}
	if len(delays) != 2 || delays[0] != time.Hour || delays[1] != time.Hour {
		t.Errorf("reported delays = %v, want [1h 1h]", delays)
	}
	if d := time.Since(start); d > time.Minute {
		t.Errorf("nil sleep waited %v", d)
	}
}

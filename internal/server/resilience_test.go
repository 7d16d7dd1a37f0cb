package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"archline/internal/stats"
)

// fakeClock is an injectable breaker clock so no test waits out a real
// cooldown.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestLoadSheddingStorm is the overload acceptance test, run under
// -race by CI: with a low in-flight ceiling and the model evaluations
// held open, surplus concurrent /v1 requests must be refused with 429 +
// Retry-After (in the JSON envelope), the shed must show up in
// /metrics, and the held requests must still complete once released.
func TestLoadSheddingStorm(t *testing.T) {
	const ceiling = 4
	s := New(Config{MaxInFlight: ceiling})
	entered := make(chan struct{}, ceiling)
	release := make(chan struct{})
	s.testHookEval = func() {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the ceiling with distinct keys (no cache or singleflight
	// coalescing) and hold every evaluation open.
	var occupiers sync.WaitGroup
	for i := 0; i < ceiling; i++ {
		occupiers.Add(1)
		go func(slot int) {
			defer occupiers.Done()
			status, _ := get(t, fmt.Sprintf("%s/v1/platforms/gtx-titan/roofline?points=%d", ts.URL, 20+slot))
			if status != http.StatusOK {
				t.Errorf("occupier %d: status %d", slot, status)
			}
		}(i)
	}
	for i := 0; i < ceiling; i++ {
		<-entered // all slots demonstrably in flight
	}

	// The storm: every further /v1 request must be shed immediately.
	const surplus = 8
	for i := 0; i < surplus; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/platforms/gtx-titan/roofline?points=%d", ts.URL, 100+i))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("storm request %d: status %d, want 429", i, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Error("shed response missing Retry-After")
		}
		body := readAll(t, resp)
		env := decode(t, body)
		if errObj, ok := env["error"].(map[string]any); !ok || errObj["code"] != "overloaded" {
			t.Errorf("shed body not an overloaded envelope: %s", body)
		}
	}

	// Liveness and observability stay reachable while shedding.
	if status, _ := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Errorf("healthz unavailable during overload: %d", status)
	}
	status, metricsBody := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics unavailable during overload: %d", status)
	}
	if !strings.Contains(string(metricsBody), fmt.Sprintf("archlined_shed_total %d", surplus)) {
		t.Errorf("metrics do not count the %d shed requests:\n%s", surplus, metricsBody)
	}

	close(release)
	occupiers.Wait()
	if got := int64(s.metrics.shed.Value()); got != surplus {
		t.Errorf("shed = %d, want %d", got, surplus)
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestCircuitBreakerUnit(t *testing.T) {
	clock := newFakeClock()
	b := newCircuitBreaker(clock.now)

	// Below the sample floor nothing trips, even at 100% errors.
	for i := 0; i < DefaultBreakerMinSamples-1; i++ {
		b.record(true)
	}
	if ok, _ := b.allow(); !ok {
		t.Fatal("breaker tripped below the sample floor")
	}
	b.record(true) // the floor's failure: 100% >= the error rate with min samples met
	if ok, retry := b.allow(); ok {
		t.Fatal("breaker did not open at 100% errors")
	} else if retry <= 0 || retry > DefaultBreakerCooldown {
		t.Errorf("open retry-after = %v", retry)
	}
	if st, opens := b.snapshot(); st != breakerOpen || opens != 1 {
		t.Errorf("state = %v opens = %d, want open/1", st, opens)
	}

	// Cooldown elapses: exactly one half-open probe is admitted.
	clock.advance(2100 * time.Millisecond)
	if ok, _ := b.allow(); !ok {
		t.Fatal("breaker did not half-open after the cooldown")
	}
	if ok, _ := b.allow(); ok {
		t.Fatal("breaker admitted a second concurrent probe")
	}
	// Probe fails: back to open with a fresh cooldown.
	b.record(true)
	if st, opens := b.snapshot(); st != breakerOpen || opens != 2 {
		t.Errorf("state = %v opens = %d, want open/2 after failed probe", st, opens)
	}

	// Second cooldown, successful probe: breaker closes cleanly.
	clock.advance(2100 * time.Millisecond)
	if ok, _ := b.allow(); !ok {
		t.Fatal("breaker did not half-open after second cooldown")
	}
	b.record(false)
	if st, _ := b.snapshot(); st != breakerClosed {
		t.Errorf("state = %v, want closed after successful probe", st)
	}
	// The window restarted: old failures are forgotten.
	b.record(true)
	b.record(true)
	if ok, _ := b.allow(); !ok {
		t.Error("breaker reopened from pre-recovery failures")
	}
}

// TestBreakerEndToEnd drives the breaker through the HTTP stack: forced
// chaos 500s open it, open responses are 503 + Retry-After in the
// envelope, and after the cooldown a healthy probe closes it again.
func TestBreakerEndToEnd(t *testing.T) {
	s := New(Config{})
	clock := newFakeClock()
	s.breaker.now = clock.now
	// Force every /v1 request to fail, deterministically.
	s.chaos = &chaosInjector{errRate: 1, rng: stats.NewStream(1, "chaos/test"), sleep: func(time.Duration) {}}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	url := ts.URL + "/v1/platforms"
	for i := 0; i < DefaultBreakerMinSamples; i++ {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("chaos request %d: status %d", i, resp.StatusCode)
		}
		env := decode(t, body)
		if errObj, ok := env["error"].(map[string]any); !ok || errObj["code"] != "chaos_injected" {
			t.Fatalf("chaos 500 without envelope: %s", body)
		}
	}

	// Breaker is now open: fast 503 with Retry-After, no chaos draw.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open breaker returned %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("breaker 503 missing Retry-After")
	}
	env := decode(t, body)
	if errObj, ok := env["error"].(map[string]any); !ok || errObj["code"] != "breaker_open" {
		t.Errorf("breaker body: %s", body)
	}
	if !strings.Contains(s.metrics.Render(), "archlined_breaker_state 2") {
		t.Error("metrics do not show the breaker open")
	}
	if got := int64(s.metrics.chaos.Value()); got != DefaultBreakerMinSamples {
		t.Errorf("chaos injected = %d, want %d", got, DefaultBreakerMinSamples)
	}

	// Recovery: stop the chaos, let the cooldown pass, and the single
	// probe closes the breaker for everyone.
	s.chaos.mu.Lock()
	s.chaos.errRate = 0
	s.chaos.mu.Unlock()
	clock.advance(2100 * time.Millisecond)
	for i := 0; i < 3; i++ {
		status, _ := get(t, url)
		if status != http.StatusOK {
			t.Fatalf("post-recovery request %d: status %d", i, status)
		}
	}
	if !strings.Contains(s.metrics.Render(), "archlined_breaker_state 0") {
		t.Error("metrics do not show the breaker closed after recovery")
	}
}

// TestChaosDegradationContract drives 200 roofline GETs at a server
// running the paper chaos profile and holds it to graceful degradation:
// every failure carries the JSON error envelope with its HTTP status,
// every 429 and 503 carries Retry-After, liveness and /metrics stay up,
// and the run sees both successes and injected failures.
func TestChaosDegradationContract(t *testing.T) {
	s, ts := newTestServer(t, Config{ChaosProfile: "paper", ChaosSeed: 42, MaxInFlight: 64})
	oks := 0
	for i := 0; i < 200; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/platforms/gtx-titan/roofline?points=%d", ts.URL, 5+i%13))
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode == http.StatusOK {
			oks++
			continue
		}
		if e, _ := decode(t, body)["error"].(map[string]any); e["code"] == nil || e["status"] != float64(resp.StatusCode) {
			t.Fatalf("request %d: status %d without a matching error envelope: %s", i, resp.StatusCode, body)
		}
		if (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) &&
			resp.Header.Get("Retry-After") == "" {
			t.Errorf("request %d: %d without Retry-After", i, resp.StatusCode)
		}
	}
	if oks == 0 || oks == 200 {
		t.Errorf("%d of 200 requests succeeded, want some successes and some failures", oks)
	}
	if status, body := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Errorf("healthz under chaos: %d %s", status, body)
	}
	want := fmt.Sprintf("archlined_chaos_injected_total %d", int64(s.metrics.chaos.Value()))
	if status, expo := get(t, ts.URL+"/metrics"); status != http.StatusOK || !strings.Contains(string(expo), want) {
		t.Errorf("metrics under chaos: status %d, missing %q", status, want)
	}
}

func TestChaosInjectorDeterministic(t *testing.T) {
	mk := func() []bool {
		c, err := newChaosInjector("paper", 42, func(time.Duration) {})
		if err != nil || c == nil {
			t.Fatalf("newChaosInjector: %v %v", c, err)
		}
		var fates []bool
		for i := 0; i < 200; i++ {
			aerr, _ := c.intercept()
			fates = append(fates, aerr != nil)
		}
		return fates
	}
	a, b := mk(), mk()
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chaos draw %d diverged", i)
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 {
		t.Error("paper chaos profile never injected in 200 draws (rate too low?)")
	}
}

func TestChaosDisabledByDefault(t *testing.T) {
	if c, err := newChaosInjector("", 1, nil); c != nil || err != nil {
		t.Errorf("empty profile: %v, %v", c, err)
	}
	if c, err := newChaosInjector("none", 1, nil); c != nil || err != nil {
		t.Errorf("none profile: %v, %v", c, err)
	}
	if _, err := newChaosInjector("volcanic", 1, nil); err == nil {
		t.Error("unknown chaos profile accepted")
	}
	// A server with an unknown profile must refuse to run.
	s := New(Config{ChaosProfile: "volcanic"})
	if s.initErr == nil {
		t.Error("New accepted an unknown chaos profile")
	}
}

package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentIdenticalSweeps is the dedup acceptance test: 32
// goroutines request the same roofline sweep while the first compute is
// held open, and the model must be evaluated exactly once. Strict
// uniqueness holds because the cache is filled before the flight is
// deregistered: concurrent callers join the flight, late callers hit
// the cache. With gzip negotiated the clients also race to be the
// shared response's first gzip reader, and must all receive the same
// compressed bytes.
func TestConcurrentIdenticalSweeps(t *testing.T) {
	for _, c := range []struct{ accept, coding string }{{"identity", ""}, {"gzip", "gzip"}} {
		t.Run(c.accept, func(t *testing.T) {
			s := New(Config{})
			entered := make(chan struct{})
			release := make(chan struct{})
			var once sync.Once
			s.testHookEval = func() {
				once.Do(func() {
					close(entered)
					<-release
				})
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			const clients = 32
			url := ts.URL + "/v1/platforms/gtx-titan/roofline?points=25"
			bodies := make([]string, clients)
			var wg sync.WaitGroup
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(slot int) {
					defer wg.Done()
					req, err := http.NewRequest(http.MethodGet, url, nil)
					if err != nil {
						t.Errorf("client %d: %v", slot, err)
						return
					}
					req.Header.Set("Accept-Encoding", c.accept)
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Errorf("client %d: %v", slot, err)
						return
					}
					defer resp.Body.Close()
					b, err := io.ReadAll(resp.Body)
					if err != nil {
						t.Errorf("client %d: %v", slot, err)
						return
					}
					if resp.StatusCode != http.StatusOK {
						t.Errorf("client %d: status %d: %s", slot, resp.StatusCode, b)
					}
					if ce := resp.Header.Get("Content-Encoding"); ce != c.coding {
						t.Errorf("client %d: Content-Encoding %q, want %q", slot, ce, c.coding)
					}
					bodies[slot] = string(b)
				}(i)
			}
			// Hold the single compute open until it is demonstrably in
			// flight, so the other clients really do arrive concurrently.
			<-entered
			close(release)
			wg.Wait()

			if n := s.ModelEvals(); n != 1 {
				t.Errorf("model evals = %d, want exactly 1 for %d identical requests", n, clients)
			}
			for i := 1; i < clients; i++ {
				if bodies[i] != bodies[0] {
					t.Fatalf("client %d body differs from client 0", i)
				}
			}
		})
	}
}

// TestHammerMixedEndpoints drives several endpoints from 32 goroutines;
// it exists to give the race detector surface area over the cache,
// flight group, and metrics paths.
func TestHammerMixedEndpoints(t *testing.T) {
	s := New(Config{CacheEntries: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 32
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			// Half the clients share one sweep; the rest spread over
			// distinct grids to force eviction churn.
			points := 17
			if slot%2 == 1 {
				points = 5 + slot
			}
			url := fmt.Sprintf("%s/v1/platforms/arndale-gpu/roofline?points=%d", ts.URL, points)
			for rep := 0; rep < 5; rep++ {
				resp, err := http.Get(url)
				if err != nil {
					t.Errorf("client %d: %v", slot, err)
					return
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					t.Errorf("client %d: %v", slot, err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d", slot, resp.StatusCode)
				}
			}
			// Interleave metrics scrapes with the sweeps; each one, taken
			// mid-load, must still be well-formed exposition.
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Errorf("client %d metrics: %v", slot, err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("client %d metrics: %v", slot, err)
			}
			resp.Body.Close()
			checkExpositionLines(t, string(body))
		}(i)
	}
	wg.Wait()
	if got := s.Metrics().Requests(); got < clients*5 {
		t.Errorf("requests recorded = %d, want >= %d", got, clients*5)
	}
}

// checkExpositionLines requires every line of a /metrics body to be a
// comment or a `name{labels} value` sample whose value parses as a
// float: the contract scrapers rely on.
func checkExpositionLines(t *testing.T, expo string) {
	t.Helper()
	for n, line := range strings.Split(strings.TrimRight(expo, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, _ := strings.Cut(line, " ")
		if _, err := strconv.ParseFloat(value, 64); err != nil || name == "" ||
			(strings.Contains(name, "{") && !strings.HasSuffix(name, "}")) {
			t.Errorf("metrics line %d is not `name{labels} value`: %q", n+1, line)
		}
	}
}

// TestGracefulDrain starts the real daemon (listener, signal-shaped
// context), holds a request in flight, triggers shutdown, and verifies
// the in-flight request completes with 200 and Run exits cleanly within
// the drain window.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0", DrainTimeout: 5 * time.Second})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookEval = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout syncBuffer
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx, &stdout, io.Discard) }()

	base := waitForListening(t, &stdout)

	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(base + "/v1/platforms/gtx-titan/roofline?points=9")
		if err != nil {
			reqDone <- -1
			return
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		reqDone <- resp.StatusCode
	}()

	<-entered // the request is now inside the model evaluation
	cancel()  // shutdown requested with the request still in flight

	// Give the shutdown a moment to begin, then let the handler finish.
	time.Sleep(50 * time.Millisecond)
	close(release)

	select {
	case status := <-reqDone:
		if status != http.StatusOK {
			t.Errorf("in-flight request status = %d, want 200", status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Errorf("Run returned %v, want nil after graceful drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return within the drain window")
	}
}

// syncBuffer is a goroutine-safe writer capturing daemon stdout.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitForListening polls the daemon's startup line and returns the base
// URL it announced.
func waitForListening(t *testing.T, out *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		text := out.String()
		if _, rest, ok := strings.Cut(text, "listening on "); ok {
			if url, _, ok := strings.Cut(rest, "\n"); ok {
				return strings.TrimSpace(url)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("daemon never announced its listen address")
	return ""
}

package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// -update rewrites the exposition golden from current output.
var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fixedMetrics builds a Metrics on a deterministic clock: construction
// happens at t0, every later read sees t0+90s.
func fixedMetrics() *Metrics {
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	first := true
	return newMetrics(func() time.Time {
		if first {
			first = false
			return t0
		}
		return t0.Add(90 * time.Second)
	})
}

// TestMetricsGoldenExposition pins the full exposition byte-for-byte:
// the injected clock makes the uptime line deterministic, single
// latency samples make every quantile trivially predictable, and a
// second render must reproduce identical bytes.
func TestMetricsGoldenExposition(t *testing.T) {
	m := fixedMetrics()
	m.noteRequest("/v1/platforms", 200, 250*time.Millisecond)
	m.noteRequest("/healthz", 200, 250*time.Millisecond)
	m.noteCache(true)
	m.noteCache(false)
	m.noteEval()
	m.noteInFlight(1)
	m.noteShed()
	m.noteChaos()

	got := m.Render()
	golden := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("exposition mismatch\ngot:\n%s\nwant:\n%s", got, want)
	}
	if again := m.Render(); again != got {
		t.Error("two renders of identical state produced different bytes")
	}
}

// TestMetricsConcurrentRender hammers the write paths from many
// goroutines while rendering concurrently; run under -race this is the
// registry's thread-safety proof.
func TestMetricsConcurrentRender(t *testing.T) {
	m := fixedMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.noteRequest("/v1/query", 200, time.Duration(i)*time.Millisecond)
				m.noteCache(i%2 == 0)
				m.noteInFlight(1)
				m.noteInFlight(-1)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = m.Render()
		}
	}()
	wg.Wait()
	if got := m.requests.With("/v1/query", "200").Value(); got != 1600 {
		t.Errorf("requests total = %v, want 1600", got)
	}
	if !strings.Contains(m.Render(), `archlined_request_latency_samples{endpoint="/v1/query"} 1024`) {
		t.Error("latency window did not report its full population")
	}
}

// TestLatencyPathsAgree pins the double-accounting fix: one noteRequest
// call records the same sample into both latency surfaces, so every
// endpoint in the sliding-window summary also has duration histogram
// counts, and the two populations are equal.
func TestLatencyPathsAgree(t *testing.T) {
	m := fixedMetrics()
	m.noteRequest("/v1/query", 200, 10*time.Millisecond)
	m.noteRequest("/v1/query", 200, 20*time.Millisecond)
	m.noteRequest("/healthz", 200, time.Millisecond)
	exp := m.Render()
	for _, c := range []struct {
		endpoint string
		n        int
	}{
		{"/v1/query", 2},
		{"/healthz", 1},
	} {
		window := `archlined_request_latency_samples{endpoint="` + c.endpoint + `"} ` + strconv.Itoa(c.n)
		histo := `archlined_request_duration_seconds_count{endpoint="` + c.endpoint + `"} ` + strconv.Itoa(c.n)
		quant := `archlined_request_latency_seconds{endpoint="` + c.endpoint + `",quantile="0.99"}`
		for _, want := range []string{window, histo, quant} {
			if !strings.Contains(exp, want) {
				t.Errorf("exposition missing %q", want)
			}
		}
	}
}

// TestPlatformQueryAggregation checks the per-platform counters and the
// distinct-platform gauge in the exposition, and that both count since
// start: a repeat query of a known platform adds to its counter but not
// to the distinct count.
func TestPlatformQueryAggregation(t *testing.T) {
	m := fixedMetrics()
	m.notePlatformQuery("gtx-titan")
	m.notePlatformQuery("gtx-titan")
	m.notePlatformQuery("i7-3615qm")
	exp := m.Render()
	for _, want := range []string{
		`archlined_platform_queries_total{platform="gtx-titan"} 2`,
		`archlined_platform_queries_total{platform="i7-3615qm"} 1`,
		`archlined_distinct_platforms_queried 2`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q in:\n%s", want, exp)
		}
	}

	m.notePlatformQuery("gtx-titan")
	exp = m.Render()
	for _, want := range []string{
		`archlined_platform_queries_total{platform="gtx-titan"} 3`,
		`archlined_distinct_platforms_queried 2`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q in:\n%s", want, exp)
		}
	}
}

// TestPlatformQueryCardinalityCap floods notePlatformQuery past the
// registry's 256-series cap and checks the overflow is dropped and
// counted rather than stored, with the distinct gauge saturating at the
// cap.
func TestPlatformQueryCardinalityCap(t *testing.T) {
	m := fixedMetrics()
	for i := 0; i < 300; i++ {
		m.notePlatformQuery("plat-" + strconv.Itoa(i))
	}
	exp := m.Render()
	if n := strings.Count(exp, `archlined_platform_queries_total{platform="plat-`); n != 256 {
		t.Errorf("rendered %d per-platform series, want the 256-series cap", n)
	}
	for _, want := range []string{
		`obs_dropped_series_total{family="archlined_platform_queries_total"} 44`,
		`archlined_distinct_platforms_queried 256`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q in:\n%s", want, exp)
		}
	}
}

// TestLatencyWindowWraps fills one endpooint's ring past capacity and
// checks the sample population saturates at the window size.
func TestLatencyWindowWraps(t *testing.T) {
	w := &latWindow{}
	for i := 0; i < latWindowSize+100; i++ {
		w.add(float64(i))
	}
	if len(w.samples()) != latWindowSize {
		t.Fatalf("window holds %d samples, want %d", len(w.samples()), latWindowSize)
	}
	// The oldest 100 samples were overwritten in place.
	if w.buf[0] != float64(latWindowSize) {
		t.Errorf("ring slot 0 = %v, want %v", w.buf[0], float64(latWindowSize))
	}
}

// TestRequestIDEcho checks X-Request-Id propagation: a caller-supplied
// ID is echoed verbatim, and a missing one is minted.
func TestRequestIDEcho(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, err := http.NewRequest("GET", ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "caller-supplied-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "caller-supplied-7" {
		t.Errorf("echoed request ID = %q, want caller's", got)
	}

	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); len(got) < 8 {
		t.Errorf("minted request ID = %q, want a generated ID", got)
	}
}

// TestPprofGating checks /debug/pprof/ is a 404 by default and only
// mounts under EnablePprof.
func TestPprofGating(t *testing.T) {
	_, off := newTestServer(t, Config{})
	status, _ := get(t, off.URL+"/debug/pprof/")
	if status != http.StatusNotFound {
		t.Errorf("pprof without flag: status = %d, want 404", status)
	}
	_, on := newTestServer(t, Config{EnablePprof: true})
	status, body := get(t, on.URL+"/debug/pprof/")
	if status != http.StatusOK || !bytes.Contains(body, []byte("goroutine")) {
		t.Errorf("pprof with flag: status = %d, want 200 with profile index", status)
	}
}

// TestRequestSpansExported runs a server with a TraceWriter and checks
// each request exports one http.<pattern> span carrying the request ID,
// and that the obs self-metrics appear on /metrics.
func TestRequestSpansExported(t *testing.T) {
	var traces syncBuffer
	_, ts := newTestServer(t, Config{TraceWriter: &traces})
	req, _ := http.NewRequest("GET", ts.URL+"/v1/platforms", nil)
	req.Header.Set("X-Request-Id", "trace-me")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var rec struct {
		Trace string         `json:"trace"`
		Name  string         `json:"name"`
		Attrs map[string]any `json:"attrs"`
	}
	line := strings.TrimSpace(traces.String())
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("span line is not JSON: %v (%q)", err, line)
	}
	if rec.Name != "http./v1/platforms" || rec.Trace != "trace-me" {
		t.Errorf("span = %+v", rec)
	}
	if rec.Attrs["status"] != float64(200) || rec.Attrs["request_id"] != "trace-me" {
		t.Errorf("span attrs = %v", rec.Attrs)
	}

	_, body := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"obs_spans_started_total", "obs_spans_ended_total",
		"# HELP archlined_requests_total", "# TYPE archlined_request_duration_seconds histogram",
		`archlined_request_duration_seconds_bucket{endpoint="/v1/platforms",le="+Inf"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

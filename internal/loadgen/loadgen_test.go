package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"archline/internal/server"
	"archline/internal/stats"
)

// newTestDaemon boots an in-process archlined and returns its base URL
// plus the server (for metrics assertions).
func newTestDaemon(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts.URL
}

// TestRunDeterministicStream checks two equal-seed runs issue the exact
// same operation mix (the request stream is a pure function of the
// seed) and that the standing mix produces only successes against a
// healthy daemon.
func TestRunDeterministicStream(t *testing.T) {
	_, base := newTestDaemon(t, server.Config{})
	cfg := Config{
		BaseURL:     base,
		MaxRequests: 60,
		Duration:    30 * time.Second, // bound by MaxRequests, not time
		Workers:     4,
		Seed:        7,
	}
	rep1, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Requests != 60 || rep2.Requests != 60 {
		t.Fatalf("requests = %d, %d; want 60 each", rep1.Requests, rep2.Requests)
	}
	if rep1.OK != 60 {
		t.Errorf("ok = %d of 60; breakdown %+v", rep1.OK, rep1)
	}
	if len(rep1.Ops) != len(rep2.Ops) {
		t.Fatalf("op sets differ: %d vs %d", len(rep1.Ops), len(rep2.Ops))
	}
	for i := range rep1.Ops {
		a, b := rep1.Ops[i], rep2.Ops[i]
		if a.Op != b.Op || a.Requests != b.Requests {
			t.Errorf("op %d: %s×%d vs %s×%d; the stream must be seed-deterministic",
				i, a.Op, a.Requests, b.Op, b.Requests)
		}
	}
	if rep1.P99Ms <= 0 {
		t.Error("no latency quantiles computed")
	}
	// The report is archloadgen's -json output, which scripts parse.
	if raw, err := json.Marshal(rep1); err != nil || !strings.Contains(string(raw), `"requests":60,`) {
		t.Errorf("JSON report %s (%v) does not carry the request count", raw, err)
	}
}

// TestRunOpenLoop checks the paced mode issues roughly Rate×Duration
// requests and classifies them.
func TestRunOpenLoop(t *testing.T) {
	_, base := newTestDaemon(t, server.Config{})
	rep, err := Run(context.Background(), Config{
		BaseURL:  base,
		Duration: 500 * time.Millisecond,
		Rate:     100,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("open loop issued no requests")
	}
	if rep.OK == 0 {
		t.Errorf("open loop got no successes: %+v", rep)
	}
	// The pacer cannot overshoot the schedule: at most one dispatch per
	// tick plus the skipped ones.
	if rep.Requests+rep.Skipped > 100 {
		t.Errorf("dispatched %d (+%d skipped) in 0.5s at rate 100; pacing is broken",
			rep.Requests, rep.Skipped)
	}
}

// TestAggContractEndToEnd drives load and checks the per-platform query
// counters, aggregated by platform id, materialized in /metrics.
func TestAggContractEndToEnd(t *testing.T) {
	s, base := newTestDaemon(t, server.Config{})
	rep, err := Run(context.Background(), Config{
		BaseURL:     base,
		MaxRequests: 30,
		Duration:    30 * time.Second,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK == 0 {
		t.Fatalf("no successes: %+v", rep)
	}
	exp := s.Metrics().Render()
	if !strings.Contains(exp, `archlined_platform_queries_total{platform="`) {
		t.Error("per-platform counters did not materialize")
	}
}

// TestUploadsCommitEveryPass runs an upload-only mix for three passes
// over the upload ids against a daemon with a registry: each upload
// must commit a new version, none may be an idempotent re-send.
func TestUploadsCommitEveryPass(t *testing.T) {
	s, base := newTestDaemon(t, server.Config{DataDir: t.TempDir()})
	const n = 3 * uploadIDs
	rep, err := Run(context.Background(), Config{
		BaseURL:     base,
		MaxRequests: n,
		Duration:    30 * time.Second,
		Seed:        7,
		Mix:         map[string]float64{OpUpload: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != n || rep.OK != n {
		t.Fatalf("requests = %d, ok = %d; want %d each: %+v", rep.Requests, rep.OK, n, rep)
	}
	want := fmt.Sprintf("archlined_registry_uploads_total %d\n", n)
	if exp := s.Metrics().Render(); !strings.Contains(exp, want) {
		t.Errorf("exposition lacks %q", strings.TrimSpace(want))
	}
}

// TestParseMix checks override and error behavior.
func TestParseMix(t *testing.T) {
	mix, err := ParseMix("query=1,fit=2")
	if err != nil {
		t.Fatal(err)
	}
	if mix[OpQuery] != 1 || mix[OpFit] != 2 {
		t.Errorf("overrides not applied: %v", mix)
	}
	if mix[OpRoofline] != DefaultMix()[OpRoofline] {
		t.Error("unnamed op lost its default weight")
	}
	if mix, err := ParseMix("query=50,"); err != nil || mix[OpQuery] != 50 {
		t.Errorf("ParseMix with a trailing comma = %v, %v; want query=50", mix, err)
	}
	for _, bad := range []string{"nope=1", "query", "query=x", "query=50,,roofline=1", ",query=50", ","} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
}

// TestClassify pins the response taxonomy the report counts by.
func TestClassify(t *testing.T) {
	cases := []struct {
		status int
		code   string
		want   string
	}{
		{200, "", classOK},
		{201, "", classOK},
		{202, "", classOK},
		{400, "bad_request", classClientErr},
		{404, "not_found", classClientErr},
		{429, "overloaded", classShed},
		{429, "job_queue_full", classJobsShed},
		{500, "internal", classServerErr},
		{503, "breaker_open", classBreaker},
		{503, "draining", classDraining},
		{503, "", classServerErr},
	}
	for _, c := range cases {
		if got := classify(c.status, c.code); got != c.want {
			t.Errorf("classify(%d, %q) = %s, want %s", c.status, c.code, got, c.want)
		}
	}
}

// TestBudgetCheck checks each limit trips independently.
func TestBudgetCheck(t *testing.T) {
	rep := Report{OK: 100, RPS: 50, P99Ms: 30}
	if v := (Budget{MaxP99Ms: 40, MinRPS: 10}).Check(rep); len(v) != 0 {
		t.Errorf("in-budget report violated: %v", v)
	}
	if v := (Budget{MaxP99Ms: 10}).Check(rep); len(v) != 1 {
		t.Errorf("p99 breach not caught: %v", v)
	}
	if v := (Budget{MinRPS: 100}).Check(rep); len(v) != 1 {
		t.Errorf("rps breach not caught: %v", v)
	}
	rep.ServerErrors = 3
	if v := (Budget{}).Check(rep); len(v) != 1 {
		t.Errorf("server errors not caught by default: %v", v)
	}
	if v := (Budget{MaxServerErrors: 5}).Check(rep); len(v) != 0 {
		t.Errorf("allowed server errors still flagged: %v", v)
	}
	if v := (Budget{}).Check(Report{}); len(v) == 0 {
		t.Error("an all-zero report (no successes) must violate")
	}
}

// TestZipfPicker checks the rank distribution is head-heavy and
// deterministic.
func TestZipfPicker(t *testing.T) {
	z := newZipfPicker(12, 1.1)
	counts := make([]int, 12)
	rng := stats.NewStream(42, "zipf-test")
	for i := 0; i < 10000; i++ {
		counts[z.pick(rng)]++
	}
	if counts[0] <= counts[5] || counts[0] <= counts[11] {
		t.Errorf("rank 0 not hottest: %v", counts)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 10000 {
		t.Fatalf("picks out of range: %v", counts)
	}
	// Same stream, same draws.
	z2 := newZipfPicker(12, 1.1)
	r1, r2 := stats.NewStream(9, "a"), stats.NewStream(9, "a")
	for i := 0; i < 100; i++ {
		if z2.pick(r1) != z2.pick(r2) {
			t.Fatal("zipf draws are not deterministic per stream")
		}
	}
}

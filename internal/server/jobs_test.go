package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"archline/internal/jobs"
	"archline/internal/machine"
	"archline/internal/powermon"
)

// postFit submits a fit request with an explicit X-Request-Id and
// returns status + body.
func postFit(t *testing.T, url, reqID, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/fit", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set(requestIDHeader, reqID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// del performs a DELETE and returns status + body.
func del(t *testing.T, url string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// pollJob polls GET /v1/jobs/{id} until the job is terminal.
func pollJob(t *testing.T, base, id string, deadline time.Duration) map[string]any {
	t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		status, body := get(t, base+"/v1/jobs/"+id)
		if status != http.StatusOK {
			t.Fatalf("poll status = %d: %s", status, body)
		}
		m := decode(t, body)
		switch m["state"] {
		case "done", "failed", "canceled":
			return m
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state within %v", id, deadline)
	return nil
}

// TestFitJobEndToEnd is the PR's acceptance test: a paper-profile fit
// job submitted over HTTP re-fits the GTX Titan energy and power
// constants within 5% of Table I (the PR 3 bound), exports a parseable
// single-root span tree for the job under the submitting request's
// X-Request-Id, surfaces the archlined_jobs_* families in /metrics, and
// replays its progress events over NDJSON.
func TestFitJobEndToEnd(t *testing.T) {
	var trace syncBuffer
	s, ts := newTestServer(t, Config{TraceWriter: &trace})
	const reqID = "fit-e2e-trace"

	// Parameters pinned to the fit package's acceptance test: sim seed
	// 42, paper faults with seed 7, fitter seed 2.
	status, body := postFit(t, ts.URL, reqID,
		`{"platform_id":"gtx-titan","fault_profile":"paper","seed":42,"fault_seed":7,"fit_seed":2}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", status, body)
	}
	sub := decode(t, body)
	id, _ := sub["id"].(string)
	if !strings.HasPrefix(id, "job-") {
		t.Fatalf("submit returned no job ID: %s", body)
	}
	if st := sub["state"]; st != "queued" && st != "running" {
		t.Errorf("submit state = %v", st)
	}

	final := pollJob(t, ts.URL, id, 2*time.Minute)
	if final["state"] != "done" {
		t.Fatalf("job state = %v (error %v)", final["state"], final["error"])
	}
	result, ok := final["result"].(map[string]any)
	if !ok {
		t.Fatalf("terminal body has no result: %v", final)
	}
	if result["fault_profile"] != "paper" {
		t.Errorf("result fault_profile = %v", result["fault_profile"])
	}
	robust, ok := result["robust"].(map[string]any)
	if !ok || robust["repeats"] == nil {
		t.Errorf("terminal body has no robust stats: %v", result)
	}
	if g := result["grade"]; g != "A" && g != "B" {
		t.Errorf("fit grade = %v under the paper profile, want A or B", g)
	}

	// Fitted constants within 5% of Table I ground truth.
	fitBody, ok := result["fit"].(map[string]any)
	if !ok {
		t.Fatalf("terminal body has no fit constants: %v", result)
	}
	truth := machine.MustByID(machine.GTXTitan).Single
	for _, c := range []struct {
		field string
		want  float64
	}{
		{"eps_flop_j_per_flop", truth.EpsFlop.JoulesPerFlop()},
		{"eps_mem_j_per_byte", truth.EpsMem.JoulesPerByte()},
		{"pi1_w", truth.Pi1.Watts()},
	} {
		got, _ := fitBody[c.field].(float64)
		if re := math.Abs(got-c.want) / math.Abs(c.want); re > 0.05 {
			t.Errorf("%s = %v, truth %v (rel err %.3f > 0.05)", c.field, got, c.want, re)
		}
	}

	// The job's span tree: all spans under the submitting request ID
	// form one tree with exactly one root, and every parent resolves.
	type spanRec struct {
		Trace  string `json:"trace"`
		Span   uint64 `json:"span"`
		Parent uint64 `json:"parent"`
		Name   string `json:"name"`
	}
	ids := map[uint64]bool{}
	var spans []spanRec
	for _, line := range strings.Split(strings.TrimSpace(trace.String()), "\n") {
		var rec spanRec
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable span line %q: %v", line, err)
		}
		if rec.Trace != reqID {
			continue // a polling request's own span
		}
		spans = append(spans, rec)
		ids[rec.Span] = true
	}
	roots, names := 0, map[string]bool{}
	for _, rec := range spans {
		names[rec.Name] = true
		if rec.Parent == 0 {
			roots++
			if rec.Name != "http./v1/fit" {
				t.Errorf("root span is %q, want http./v1/fit", rec.Name)
			}
			continue
		}
		if !ids[rec.Parent] {
			t.Errorf("span %q parent %d not in the tree", rec.Name, rec.Parent)
		}
	}
	if roots != 1 {
		t.Errorf("span tree has %d roots, want 1 (spans %v)", roots, names)
	}
	for _, want := range []string{"http./v1/fit", "job.fit", "microbench.suite", "fit.platform"} {
		if !names[want] {
			t.Errorf("span tree missing %q (have %v)", want, names)
		}
	}

	// Job-state counters on /metrics.
	_, metricsBody := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"archlined_jobs_submitted_total 1",
		`archlined_jobs_finished_total{state="done"} 1`,
		`archlined_jobs_active{state="running"} 0`,
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The events endpoint replays the whole narration after the fact.
	status, evBody := get(t, ts.URL+"/v1/jobs/"+id+"/events")
	if status != http.StatusOK {
		t.Fatalf("events status = %d", status)
	}
	lines := strings.Split(strings.TrimSpace(string(evBody)), "\n")
	if len(lines) < 3 {
		t.Fatalf("events stream too short: %q", evBody)
	}
	header := decode(t, []byte(lines[0]))
	if header["job"] != id {
		t.Errorf("events header = %v", header)
	}
	seen := map[string]bool{}
	for _, line := range lines[1 : len(lines)-1] {
		ev := decode(t, []byte(line))
		name, _ := ev["name"].(string)
		seen[name] = true
	}
	for _, want := range []string{"queued", "running", "measure.start", "measure.done", "fit.start", "fit.done", "state"} {
		if !seen[want] {
			t.Errorf("events stream missing %q (have %v)", want, seen)
		}
	}
	trailer := decode(t, []byte(lines[len(lines)-1]))
	if trailer["done"] != true || trailer["state"] != "done" {
		t.Errorf("events trailer = %v", trailer)
	}

	// The engine never counts async fits as cache-missed model evals:
	// the exact-counter guarantees of the sync endpoints stay intact.
	if n := s.ModelEvals(); n != 0 {
		t.Errorf("fit job incremented model evals to %d", n)
	}
}

// TestFitJobOverlongRecordingFails submits a client platform whose
// rates stretch its kernels' runs past the meter's per-channel sample
// bound. The job must fail with the bound's error and the daemon keep
// serving: allocating such a trace panics on a pool worker, which
// nothing recovers, and takes the whole process down.
func TestFitJobOverlongRecordingFails(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	raw, err := machine.Canonical(machine.MustByID(machine.GTXTitan))
	if err != nil {
		t.Fatal(err)
	}
	var plat map[string]any
	if err := json.Unmarshal(raw, &plat); err != nil {
		t.Fatal(err)
	}
	plat["id"], plat["name"] = "slow-titan", "slow-titan"
	plat["sustained_single_gflops"], plat["sustained_double_gflops"] = 1e-12, 1e-12
	body, err := json.Marshal(map[string]any{"platform": plat})
	if err != nil {
		t.Fatal(err)
	}
	status, resp := post(t, ts.URL+"/v1/fit", string(body))
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", status, resp)
	}
	id, _ := decode(t, resp)["id"].(string)
	final := pollJob(t, ts.URL, id, time.Minute)
	if final["state"] != "failed" {
		t.Fatalf("job state = %v, want failed (error %v)", final["state"], final["error"])
	}
	if msg, _ := final["error"].(string); !strings.Contains(msg, powermon.ErrTraceTooLong.Error()) {
		t.Errorf("job error %q does not carry %q", msg, powermon.ErrTraceTooLong)
	}
	for _, path := range []string{"/healthz", "/v1/platforms"} {
		if status, resp := get(t, ts.URL+path); status != http.StatusOK {
			t.Errorf("GET %s after the failed job = %d: %s", path, status, resp)
		}
	}
}

func TestFitSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, body string
		status     int
		code       string
	}{
		{"no platform", `{}`, http.StatusBadRequest, "bad_request"},
		{"unknown platform", `{"platform_id":"eniac"}`, http.StatusNotFound, "not_found"},
		{"unknown profile", `{"platform_id":"gtx-titan","fault_profile":"apocalyptic"}`,
			http.StatusBadRequest, "bad_request"},
		{"repeats beyond cap", `{"platform_id":"gtx-titan","repeats":11}`,
			http.StatusBadRequest, "bad_request"},
		{"sweep points beyond cap", `{"platform_id":"gtx-titan","sweep_points":1000}`,
			http.StatusBadRequest, "bad_request"},
		{"unknown field", `{"platform_id":"gtx-titan","bogus":1}`,
			http.StatusBadRequest, "bad_request"},
	} {
		status, body := post(t, ts.URL+"/v1/fit", tc.body)
		wantError(t, status, body, tc.status, tc.code)
	}
}

func TestJobUnknownIDs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/v1/jobs/job-nope")
	wantError(t, status, body, http.StatusNotFound, "not_found")
	status, body = del(t, ts.URL+"/v1/jobs/job-nope")
	wantError(t, status, body, http.StatusNotFound, "not_found")
	status, body = get(t, ts.URL+"/v1/jobs/job-nope/events")
	wantError(t, status, body, http.StatusNotFound, "not_found")
}

// TestJobQueueCapSheds pins the acceptance requirement that concurrent
// duplicate submits cannot exceed the queue cap silently: with one
// worker held and queueing disabled, every extra submit answers 429 +
// Retry-After and the shed counter says how many.
func TestJobQueueCapSheds(t *testing.T) {
	s, ts := newTestServer(t, Config{JobWorkers: 1, JobQueueDepth: -1})
	release := make(chan struct{})
	started := make(chan struct{})
	_, err := s.jobs.Submit(context.Background(), "blocker",
		func(ctx context.Context, p *jobs.Progress) (any, error) {
			close(started)
			select {
			case <-release:
			case <-ctx.Done():
			}
			return nil, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	const n = 4
	var wg sync.WaitGroup
	statuses := make([]int, n)
	retryAfter := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/fit",
				strings.NewReader(`{"platform_id":"gtx-titan"}`))
			if err != nil {
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			_, _ = io.Copy(io.Discard, resp.Body)
			statuses[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()
	for i, st := range statuses {
		if st != http.StatusTooManyRequests {
			t.Errorf("duplicate submit %d status = %d, want 429", i, st)
		}
		if retryAfter[i] == "" {
			t.Errorf("duplicate submit %d missing Retry-After", i)
		}
	}
	_, metricsBody := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(metricsBody), fmt.Sprintf("archlined_jobs_shed_total %d", n)) {
		t.Errorf("/metrics does not report %d shed jobs", n)
	}
	close(release)
}

// TestJobCancelRunningPromptly pins DELETE's contract: a running job's
// context is canceled and the job lands terminal without waiting for
// its work to finish.
func TestJobCancelRunningPromptly(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	started := make(chan struct{})
	id, err := s.jobs.Submit(context.Background(), "long-haul",
		func(ctx context.Context, p *jobs.Progress) (any, error) {
			close(started)
			<-ctx.Done() // would run "forever" without cancellation
			return nil, ctx.Err()
		})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	cancelAt := time.Now()
	status, body := del(t, ts.URL+"/v1/jobs/"+id)
	if status != http.StatusOK {
		t.Fatalf("cancel status = %d: %s", status, body)
	}
	final := pollJob(t, ts.URL, id, 5*time.Second)
	if final["state"] != "canceled" {
		t.Errorf("state after DELETE = %v", final["state"])
	}
	if errText, _ := final["error"].(string); !strings.Contains(errText, "context canceled") {
		t.Errorf("canceled job error = %q", errText)
	}
	if d := time.Since(cancelAt); d > 3*time.Second {
		t.Errorf("cancellation took %v, want prompt", d)
	}
	// A second DELETE is a no-op on the terminal job.
	status, body = del(t, ts.URL+"/v1/jobs/"+id)
	if status != http.StatusOK || decode(t, body)["state"] != "canceled" {
		t.Errorf("re-cancel: status %d body %s", status, body)
	}
	if _, expo := get(t, ts.URL+"/metrics"); !strings.Contains(string(expo), `archlined_jobs_finished_total{state="canceled"} 1`) {
		t.Error("/metrics does not count the canceled job")
	}
}

// TestJobEventsStreamFollowsLive subscribes while the job is running
// and reads NDJSON lines as they are flushed, through to the terminal
// trailer.
func TestJobEventsStreamFollowsLive(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	release := make(chan struct{})
	started := make(chan struct{})
	id, err := s.jobs.Submit(context.Background(), "narrated",
		func(ctx context.Context, p *jobs.Progress) (any, error) {
			p.Emit("stage", map[string]any{"n": 1})
			close(started)
			<-release
			p.Emit("stage", map[string]any{"n": 2})
			return "narration over", nil
		})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no header line")
	}
	header := decode(t, sc.Bytes())
	if header["job"] != id || header["state"] != "running" {
		t.Errorf("header = %v", header)
	}
	// Drain the replay (queued, running, stage 1) while the job holds.
	for i := 0; i < 3; i++ {
		if !sc.Scan() {
			t.Fatalf("replay line %d missing", i)
		}
	}
	close(release)
	var tail []map[string]any
	for sc.Scan() {
		tail = append(tail, decode(t, sc.Bytes()))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(tail) < 3 {
		t.Fatalf("live tail too short: %v", tail)
	}
	trailer := tail[len(tail)-1]
	if trailer["done"] != true || trailer["state"] != "done" {
		t.Errorf("trailer = %v", trailer)
	}
	liveNames := map[string]bool{}
	for _, ev := range tail[:len(tail)-1] {
		name, _ := ev["name"].(string)
		liveNames[name] = true
	}
	if !liveNames["stage"] || !liveNames["state"] {
		t.Errorf("live events = %v, want stage + state", liveNames)
	}
}

// TestMethodNotAllowedSetsAllow pins the RFC 9110 requirement: every
// 405 names the methods the resource does support.
func TestMethodNotAllowedSetsAllow(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		method, path, wantAllow string
	}{
		{http.MethodGet, "/v1/query", "POST"},
		{http.MethodDelete, "/v1/platforms", "GET, POST"},
		{http.MethodPost, "/v1/platforms/arndale-cpu", "DELETE, GET"},
		{http.MethodPost, "/v1/jobs/job-x", "DELETE, GET"},
		{http.MethodPut, "/v1/fit", "POST"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		wantError(t, resp.StatusCode, body, http.StatusMethodNotAllowed, "method_not_allowed")
		if got := resp.Header.Get("Allow"); got != tc.wantAllow {
			t.Errorf("%s %s: Allow = %q, want %q", tc.method, tc.path, got, tc.wantAllow)
		}
	}
}

// TestGracefulDrainWithJobs covers the drain contract for the job
// engine: on shutdown, a cooperative running job finishes inside the
// drain window, a job that only stops on cancellation is canceled, and
// Run still exits cleanly within the deadline.
func TestGracefulDrainWithJobs(t *testing.T) {
	// Two workers so both jobs run concurrently even on a single-CPU
	// host, where the default would clamp to one.
	s := New(Config{Addr: "127.0.0.1:0", DrainTimeout: 3 * time.Second, JobWorkers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout syncBuffer
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx, &stdout, io.Discard) }()
	base := waitForListening(t, &stdout)

	release := make(chan struct{})
	bothRunning := make(chan struct{}, 2)
	cooperative, err := s.jobs.Submit(context.Background(), "cooperative",
		func(ctx context.Context, p *jobs.Progress) (any, error) {
			bothRunning <- struct{}{}
			<-release
			return "made it", nil
		})
	if err != nil {
		t.Fatal(err)
	}
	stubborn, err := s.jobs.Submit(context.Background(), "stubborn",
		func(ctx context.Context, p *jobs.Progress) (any, error) {
			bothRunning <- struct{}{}
			<-ctx.Done() // only the drain's cancellation stops this one
			return nil, ctx.Err()
		})
	if err != nil {
		t.Fatal(err)
	}
	<-bothRunning
	<-bothRunning

	cancel() // SIGTERM
	time.Sleep(50 * time.Millisecond)
	close(release) // the cooperative job finishes mid-drain

	select {
	case err := <-runErr:
		if err != nil {
			t.Errorf("Run returned %v, want nil", err)
		}
	case <-time.After(6 * time.Second):
		t.Fatal("Run did not return within the drain window")
	}
	// Both jobs are terminal: finished and canceled respectively. The
	// HTTP listener is down, so read the engine directly.
	snap, ok := s.jobs.Get(cooperative)
	if !ok || snap.State != jobs.Done {
		t.Errorf("cooperative job: ok=%v state=%v", ok, snap.State)
	}
	snap, ok = s.jobs.Get(stubborn)
	if !ok || snap.State != jobs.Canceled {
		t.Errorf("stubborn job: ok=%v state=%v", ok, snap.State)
	}
	// Submits after drain are refused (the HTTP layer would map this
	// to 503; the listener is already closed, so check the engine).
	if _, err := s.jobs.Submit(context.Background(), "late",
		func(ctx context.Context, p *jobs.Progress) (any, error) { return nil, nil }); err == nil {
		t.Error("post-drain submit was accepted")
	}
	_ = base
}

// smoke is the CI smoke probe for archlined: pointed at a running
// daemon, it checks /healthz, the shape of one roofline sweep, response
// determinism (two identical requests must return identical bytes), the
// metrics exposition (including line-level format validity),
// X-Request-Id echo, /v1/batch (duplicate items identical, bad items
// failing in-slot), the NDJSON sweep stream protocol, and the
// async fit-job lifecycle (submit, poll to terminal, grade, cancel
// mid-flight). With -chaos it instead asserts graceful
// degradation against a daemon running with chaos middleware enabled:
// every failure must carry the JSON error envelope (no naked 5xx),
// every 429/503 must carry Retry-After, and liveness must survive. It
// exits nonzero on the first failure; see scripts/ci.sh for the harness
// that boots the daemon around it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"
)

func main() {
	base := flag.String("base", "", "archlined base URL (required)")
	chaos := flag.Bool("chaos", false, "probe a chaos-mode daemon for graceful degradation")
	crashCommit := flag.Bool("crash-commit", false,
		"commit one registry upload, print its ETag, and exit (the harness kills the daemon next)")
	verifyRecover := flag.Bool("verify-recover", false,
		"assert a restarted daemon recovered the -crash-commit upload")
	wantETag := flag.String("etag", "", "with -verify-recover: the ETag the recovered upload must carry")
	wantQuarantined := flag.Int("want-quarantined", -1,
		"with -verify-recover: exact archlined_registry_quarantined_blobs_total (negative skips)")
	flag.Parse()
	if *base == "" {
		log.Fatal("smoke: -base is required")
	}
	client := &http.Client{Timeout: 10 * time.Second}
	if *chaos {
		chaosProbe(client, *base)
		fmt.Println("smoke: chaos OK")
		return
	}
	if *crashCommit {
		etag := crashCommitProbe(client, *base)
		// The harness greps this sentinel, then SIGKILLs the daemon: the
		// acknowledged upload must survive the crash.
		fmt.Printf("smoke: committed %s\n", etag)
		return
	}
	if *verifyRecover {
		verifyRecoverProbe(client, *base, *wantETag, *wantQuarantined)
		fmt.Println("smoke: recovery OK")
		return
	}

	// Liveness.
	var health struct {
		Status string `json:"status"`
	}
	if err := getJSON(client, *base+"/healthz", &health); err != nil {
		log.Fatalf("smoke: healthz: %v", err)
	}
	if health.Status != "ok" {
		log.Fatalf("smoke: healthz status = %q, want ok", health.Status)
	}

	// One sweep, with the JSON shape asserted.
	const sweepURL = "/v1/platforms/gtx-titan/roofline?points=17"
	body1, err := getBody(client, *base+sweepURL)
	if err != nil {
		log.Fatalf("smoke: roofline: %v", err)
	}
	var sweep struct {
		PlatformID string `json:"platform_id"`
		Points     []struct {
			Intensity   float64 `json:"intensity"`
			Regime      string  `json:"regime"`
			FlopsPerSec float64 `json:"flops_per_sec"`
			AvgPowerW   float64 `json:"avg_power_w"`
		} `json:"points"`
	}
	if err := json.Unmarshal(body1, &sweep); err != nil {
		log.Fatalf("smoke: roofline JSON: %v", err)
	}
	if sweep.PlatformID != "gtx-titan" || len(sweep.Points) != 17 {
		log.Fatalf("smoke: roofline shape wrong: id=%q points=%d", sweep.PlatformID, len(sweep.Points))
	}
	for _, p := range sweep.Points {
		if p.Intensity <= 0 || p.FlopsPerSec <= 0 || p.AvgPowerW <= 0 || p.Regime == "" {
			log.Fatalf("smoke: degenerate roofline point: %+v", p)
		}
	}

	// Determinism: the repeat must be byte-identical (and served from
	// the response cache).
	body2, err := getBody(client, *base+sweepURL)
	if err != nil {
		log.Fatalf("smoke: roofline repeat: %v", err)
	}
	if string(body1) != string(body2) {
		log.Fatal("smoke: identical requests returned different bytes")
	}

	// Metrics counted all of the above.
	metrics, err := getBody(client, *base+"/metrics")
	if err != nil {
		log.Fatalf("smoke: metrics: %v", err)
	}
	for _, want := range []string{
		"archlined_requests_total",
		"archlined_cache_hits_total 1",
		"archlined_model_evals_total 1",
		"# HELP archlined_requests_total",
		"# TYPE archlined_request_duration_seconds histogram",
		// Both roofline requests above counted against gtx-titan (the
		// response cache sits below the counter), and every request
		// records straight into the registry, so the per-platform series
		// and the distinct-platforms gauge are exact here.
		`archlined_platform_queries_total{platform="gtx-titan"} 2`,
		"archlined_distinct_platforms_queried 1",
	} {
		if !strings.Contains(string(metrics), want) {
			log.Fatalf("smoke: metrics missing %q in:\n%s", want, metrics)
		}
	}
	checkExpositionFormat(string(metrics))
	checkRequestIDEcho(client, *base)

	// The batch, streaming, job, and registry probes run after the
	// metrics assertions above: those pin exact counter values (one
	// eval, one cache hit) and anything evaluated here would shift them.
	checkBatch(client, *base)
	checkSweepStream(client, *base)
	checkJobLifecycle(client, *base)
	checkRegistry(client, *base)

	fmt.Println("smoke: OK")
}

// smokePlatform is a minimal valid platform description for the
// registry probes; the gflops knob changes its model outputs.
func smokePlatform(id string, gflops float64) string {
	return fmt.Sprintf(`{
		"id": %q, "name": "Smoke %s", "class": "mini", "cache_line_bytes": 64,
		"vendor_single_gflops": %g, "vendor_mem_gbs": 20, "idle_w": 3,
		"sustained_single_gflops": %g, "sustained_mem_gbs": 10,
		"eps_s_pj_per_flop": 40, "eps_mem_pj_per_byte": 300,
		"pi1_w": 2, "delta_pi_w": 4
	}`, id, id, gflops*1.25, gflops)
}

// uploadPlatform POSTs one platform description and returns the
// response ETag, asserting the expected status and outcome.
func uploadPlatform(client *http.Client, base, body string, wantStatus int, wantOutcome string) string {
	resp, err := client.Post(base+"/v1/platforms", "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatalf("smoke: upload: %v", err)
	}
	out, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		log.Fatalf("smoke: upload read: %v", err)
	}
	if resp.StatusCode != wantStatus {
		log.Fatalf("smoke: upload status %d, want %d: %s", resp.StatusCode, wantStatus, out)
	}
	var ack struct {
		ETag    string `json:"etag"`
		Outcome string `json:"outcome"`
	}
	if err := json.Unmarshal(out, &ack); err != nil || ack.ETag == "" {
		log.Fatalf("smoke: upload ack %q: %v", out, err)
	}
	if ack.Outcome != wantOutcome {
		log.Fatalf("smoke: upload outcome %q, want %q", ack.Outcome, wantOutcome)
	}
	return ack.ETag
}

// checkRegistry probes the persistent platform registry end to end:
// upload, query through the uploaded entry, re-upload with different
// content and require the query answer to change (the version-keyed
// cache must never serve the old response), revalidate with
// If-None-Match, and confirm the registry metric families counted it
// all. Leaves the registry clean (the probe platform is deleted).
func checkRegistry(client *http.Client, base string) {
	const query = `{"platform_id":"smoke-board","intensity":1000}`
	etag := uploadPlatform(client, base, smokePlatform("smoke-board", 8), http.StatusCreated, "created")

	queryBody := func() string {
		resp, err := client.Post(base+"/v1/query", "application/json", strings.NewReader(query))
		if err != nil {
			log.Fatalf("smoke: registry query: %v", err)
		}
		out, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			log.Fatalf("smoke: registry query status %d: %s (%v)", resp.StatusCode, out, err)
		}
		return string(out)
	}
	before := queryBody()
	if again := queryBody(); again != before {
		log.Fatal("smoke: identical registry queries returned different bytes")
	}

	// Re-upload with changed content; the next query must see it.
	etag2 := uploadPlatform(client, base, smokePlatform("smoke-board", 16), http.StatusOK, "updated")
	if etag2 == etag {
		log.Fatal("smoke: re-upload kept the old ETag")
	}
	if after := queryBody(); after == before {
		log.Fatal("smoke: query served a stale response after re-upload")
	}

	// Conditional GET: the current ETag revalidates to 304.
	req, err := http.NewRequest(http.MethodGet, base+"/v1/platforms/smoke-board", nil)
	if err != nil {
		log.Fatalf("smoke: registry revalidate: %v", err)
	}
	req.Header.Set("If-None-Match", etag2)
	resp, err := client.Do(req)
	if err != nil {
		log.Fatalf("smoke: registry revalidate: %v", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		log.Fatalf("smoke: revalidation status %d, want 304", resp.StatusCode)
	}

	metrics, err := getBody(client, base+"/metrics")
	if err != nil {
		log.Fatalf("smoke: metrics after registry probe: %v", err)
	}
	for _, want := range []string{
		"archlined_registry_uploads_total 2",
		"archlined_registry_invalidations_total 1",
	} {
		if !strings.Contains(string(metrics), want) {
			log.Fatalf("smoke: metrics missing %q after registry probe", want)
		}
	}

	del, err := http.NewRequest(http.MethodDelete, base+"/v1/platforms/smoke-board", nil)
	if err != nil {
		log.Fatalf("smoke: registry delete: %v", err)
	}
	dresp, err := client.Do(del)
	if err != nil {
		log.Fatalf("smoke: registry delete: %v", err)
	}
	_, _ = io.Copy(io.Discard, dresp.Body)
	_ = dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		log.Fatalf("smoke: registry delete status %d, want 204", dresp.StatusCode)
	}
}

// crashCommitProbe uploads one platform and returns its ETag. The
// harness SIGKILLs the daemon right after the sentinel prints, so the
// acknowledged write must already be durable on disk.
func crashCommitProbe(client *http.Client, base string) string {
	return uploadPlatform(client, base, smokePlatform("crash-probe", 12), http.StatusCreated, "created")
}

// verifyRecoverProbe asserts that a daemon restarted over the same data
// directory recovered the -crash-commit upload: same ETag, still
// queryable, and (when the harness planted corruption) the recovery
// scan quarantined exactly the expected blobs.
func verifyRecoverProbe(client *http.Client, base, wantETag string, wantQuarantined int) {
	resp, err := client.Get(base + "/v1/platforms/crash-probe")
	if err != nil {
		log.Fatalf("smoke: recovery get: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		log.Fatalf("smoke: recovery get status %d: %s (%v)", resp.StatusCode, body, err)
	}
	if wantETag != "" && resp.Header.Get("ETag") != wantETag {
		log.Fatalf("smoke: recovered ETag %q, want %q (content changed across the crash?)",
			resp.Header.Get("ETag"), wantETag)
	}
	qresp, err := client.Post(base+"/v1/query", "application/json",
		strings.NewReader(`{"platform_id":"crash-probe","intensity":1000}`))
	if err != nil {
		log.Fatalf("smoke: recovery query: %v", err)
	}
	qbody, err := io.ReadAll(qresp.Body)
	_ = qresp.Body.Close()
	if err != nil || qresp.StatusCode != http.StatusOK {
		log.Fatalf("smoke: recovery query status %d: %s (%v)", qresp.StatusCode, qbody, err)
	}
	if wantQuarantined >= 0 {
		metrics, err := getBody(client, base+"/metrics")
		if err != nil {
			log.Fatalf("smoke: recovery metrics: %v", err)
		}
		want := fmt.Sprintf("archlined_registry_quarantined_blobs_total %d", wantQuarantined)
		if !strings.Contains(string(metrics), want) {
			log.Fatalf("smoke: metrics missing %q after recovery", want)
		}
	}
}

// jobInfo mirrors the wire shape of /v1/fit and /v1/jobs/{id} bodies.
type jobInfo struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Error  string `json:"error"`
	Result struct {
		Grade string `json:"grade"`
	} `json:"result"`
}

// checkJobLifecycle probes the async fit-job engine end to end: submit
// a clean-profile fit, poll it to a terminal state and assert the fit
// grade, then cancel a second, deliberately slower job mid-flight and
// require it to land canceled. Runs after the exact-counter metrics
// assertions so the job counters it checks are the only job activity.
func checkJobLifecycle(client *http.Client, base string) {
	// Job 1: a clean fit that must finish and grade well.
	job := submitFit(client, base, `{"platform_id":"gtx-titan","fault_profile":"none","seed":42}`)
	final := pollJob(client, base, job.ID, 2*time.Minute)
	if final.State != "done" {
		log.Fatalf("smoke: fit job %s ended %q (error %q), want done", job.ID, final.State, final.Error)
	}
	if g := final.Result.Grade; g != "A" && g != "B" {
		log.Fatalf("smoke: clean-profile fit graded %q, want A or B", g)
	}

	// Job 2: a deliberately heavy fit (max repeats and sweep points),
	// canceled right after submit; cancellation must land promptly.
	job2 := submitFit(client, base,
		`{"platform_id":"gtx-titan","fault_profile":"none","repeats":10,"sweep_points":256}`)
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+job2.ID, nil)
	if err != nil {
		log.Fatalf("smoke: job cancel: %v", err)
	}
	resp, err := client.Do(req)
	if err != nil {
		log.Fatalf("smoke: job cancel: %v", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("smoke: job cancel status %d, want 200", resp.StatusCode)
	}
	final2 := pollJob(client, base, job2.ID, 30*time.Second)
	if final2.State != "canceled" {
		log.Fatalf("smoke: job %s ended %q after DELETE, want canceled", job2.ID, final2.State)
	}

	// The job counters saw exactly these two jobs.
	metrics, err := getBody(client, base+"/metrics")
	if err != nil {
		log.Fatalf("smoke: metrics after jobs: %v", err)
	}
	for _, want := range []string{
		"archlined_jobs_submitted_total 2",
		`archlined_jobs_finished_total{state="done"} 1`,
		`archlined_jobs_finished_total{state="canceled"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			log.Fatalf("smoke: metrics missing %q after job lifecycle", want)
		}
	}
}

// submitFit POSTs a fit request and returns the accepted job info.
func submitFit(client *http.Client, base, body string) jobInfo {
	resp, err := client.Post(base+"/v1/fit", "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatalf("smoke: fit submit: %v", err)
	}
	out, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		log.Fatalf("smoke: fit submit read: %v", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		log.Fatalf("smoke: fit submit status %d, want 202: %s", resp.StatusCode, out)
	}
	var job jobInfo
	if err := json.Unmarshal(out, &job); err != nil || job.ID == "" {
		log.Fatalf("smoke: fit submit JSON %q: %v", out, err)
	}
	return job
}

// pollJob polls GET /v1/jobs/{id} until the job is terminal.
func pollJob(client *http.Client, base, id string, deadline time.Duration) jobInfo {
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		var job jobInfo
		if err := getJSON(client, base+"/v1/jobs/"+id, &job); err != nil {
			log.Fatalf("smoke: job poll: %v", err)
		}
		switch job.State {
		case "done", "failed", "canceled":
			return job
		}
		time.Sleep(100 * time.Millisecond)
	}
	log.Fatalf("smoke: job %s did not reach a terminal state within %v", id, deadline)
	return jobInfo{}
}

// checkBatch probes POST /v1/batch: duplicate items must come back
// byte-identical (one shared evaluation) and an invalid item must fail
// alone, as an in-slot error envelope, without failing the batch.
func checkBatch(client *http.Client, base string) {
	const body = `{"items":[
		{"platform_id":"gtx-titan","intensity":2.5},
		{"platform_id":"gtx-titan","intensity":2.5},
		{"platform_id":"not-a-machine","intensity":2.5}
	]}`
	resp, err := client.Post(base+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatalf("smoke: batch: %v", err)
	}
	out, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		log.Fatalf("smoke: batch read: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("smoke: batch status %d: %s", resp.StatusCode, out)
	}
	var batch struct {
		Items   int               `json:"items"`
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(out, &batch); err != nil {
		log.Fatalf("smoke: batch JSON: %v in %s", err, out)
	}
	if batch.Items != 3 || len(batch.Results) != 3 {
		log.Fatalf("smoke: batch shape wrong: items=%d results=%d", batch.Items, len(batch.Results))
	}
	if string(batch.Results[0]) != string(batch.Results[1]) {
		log.Fatal("smoke: duplicate batch items returned different bytes")
	}
	var itemErr struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(batch.Results[2], &itemErr); err != nil || itemErr.Error.Code != "not_found" {
		log.Fatalf("smoke: bad item should carry a not_found envelope, got %s", batch.Results[2])
	}
}

// checkSweepStream probes POST /v1/sweep/stream: the NDJSON protocol
// must deliver a header, at least two chunks, and a well-formed done
// trailer accounting for every grid point.
func checkSweepStream(client *http.Client, base string) {
	const points = 2000
	body := fmt.Sprintf(`{"platform_id":"gtx-titan","points":%d}`, points)
	resp, err := client.Post(base+"/v1/sweep/stream", "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatalf("smoke: stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		out, _ := io.ReadAll(resp.Body)
		log.Fatalf("smoke: stream status %d: %s", resp.StatusCode, out)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		log.Fatalf("smoke: stream Content-Type = %q, want application/x-ndjson", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		log.Fatalf("smoke: stream read: %v", err)
	}
	if len(lines) < 4 {
		log.Fatalf("smoke: stream has %d lines, want header + >=2 chunks + trailer", len(lines))
	}
	var header struct {
		Points int `json:"points"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil || header.Points != points {
		log.Fatalf("smoke: stream header %q: err=%v points=%d", lines[0], err, header.Points)
	}
	streamed := 0
	for i, line := range lines[1 : len(lines)-1] {
		var chunk struct {
			Seq    int               `json:"seq"`
			Points []json.RawMessage `json:"points"`
		}
		if err := json.Unmarshal([]byte(line), &chunk); err != nil {
			log.Fatalf("smoke: stream chunk line %d: %v", i+1, err)
		}
		if chunk.Seq != i {
			log.Fatalf("smoke: stream chunk %d has seq %d", i, chunk.Seq)
		}
		streamed += len(chunk.Points)
	}
	var trailer struct {
		Done   bool `json:"done"`
		Chunks int  `json:"chunks"`
		Points int  `json:"points"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
		log.Fatalf("smoke: stream trailer %q: %v", lines[len(lines)-1], err)
	}
	if !trailer.Done || trailer.Points != points || trailer.Chunks != len(lines)-2 || streamed != points {
		log.Fatalf("smoke: stream trailer %+v with %d streamed points, want done with %d points in %d chunks",
			trailer, streamed, points, len(lines)-2)
	}
	if trailer.Chunks < 2 {
		log.Fatalf("smoke: stream delivered %d chunks, want at least 2 flushes", trailer.Chunks)
	}
}

// checkExpositionFormat walks every line of the /metrics body and
// requires it to be either a comment or a `name{labels} value` sample
// whose value parses as a float — the contract scrapers rely on.
func checkExpositionFormat(metrics string) {
	for n, line := range strings.Split(strings.TrimRight(metrics, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok || name == "" {
			log.Fatalf("smoke: metrics line %d is not `name value`: %q", n+1, line)
		}
		if open := strings.IndexByte(name, '{'); open >= 0 && !strings.HasSuffix(name, "}") {
			log.Fatalf("smoke: metrics line %d has an unterminated label block: %q", n+1, line)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			log.Fatalf("smoke: metrics line %d value %q is not numeric: %q", n+1, value, line)
		}
	}
}

// checkRequestIDEcho asserts X-Request-Id propagation: a supplied ID
// must come back verbatim, and a request without one must be assigned
// a freshly minted ID.
func checkRequestIDEcho(client *http.Client, base string) {
	req, err := http.NewRequest(http.MethodGet, base+"/healthz", nil)
	if err != nil {
		log.Fatalf("smoke: request-id probe: %v", err)
	}
	req.Header.Set("X-Request-Id", "smoke-probe-1")
	resp, err := client.Do(req)
	if err != nil {
		log.Fatalf("smoke: request-id probe: %v", err)
	}
	_ = resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "smoke-probe-1" {
		log.Fatalf("smoke: supplied X-Request-Id came back as %q, want verbatim echo", got)
	}

	resp2, err := client.Get(base + "/healthz")
	if err != nil {
		log.Fatalf("smoke: request-id mint probe: %v", err)
	}
	_ = resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); got == "" {
		log.Fatal("smoke: request without X-Request-Id was not assigned one")
	}
}

// chaosProbe hammers a chaos-mode daemon and asserts graceful
// degradation: successes are well-formed, every non-2xx response
// carries the JSON error envelope with a matching status, shed/breaker
// responses carry Retry-After, and the exempt routes stay healthy.
func chaosProbe(client *http.Client, base string) {
	const requests = 200
	var oks, injected int
	for i := 0; i < requests; i++ {
		url := fmt.Sprintf("%s/v1/platforms/gtx-titan/roofline?points=%d", base, 5+i%13)
		resp, err := client.Get(url)
		if err != nil {
			log.Fatalf("smoke: chaos request %d: %v", i, err)
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			log.Fatalf("smoke: chaos request %d read: %v", i, err)
		}
		if resp.StatusCode == http.StatusOK {
			oks++
			continue
		}
		// Degradation contract: failures are structured, never naked.
		var env struct {
			Error struct {
				Code   string `json:"code"`
				Status int    `json:"status"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
			log.Fatalf("smoke: chaos request %d: status %d without error envelope: %s",
				i, resp.StatusCode, body)
		}
		if env.Error.Status != resp.StatusCode {
			log.Fatalf("smoke: chaos request %d: envelope status %d != HTTP status %d",
				i, env.Error.Status, resp.StatusCode)
		}
		switch resp.StatusCode {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if resp.Header.Get("Retry-After") == "" {
				log.Fatalf("smoke: chaos request %d: %d without Retry-After", i, resp.StatusCode)
			}
		}
		injected++
	}
	if oks == 0 {
		log.Fatalf("smoke: chaos daemon served no successes in %d requests", requests)
	}

	// Liveness and observability are chaos-exempt and must still work.
	var health struct {
		Status string `json:"status"`
	}
	if err := getJSON(client, base+"/healthz", &health); err != nil || health.Status != "ok" {
		log.Fatalf("smoke: healthz under chaos: %v (status %q)", err, health.Status)
	}
	metrics, err := getBody(client, base+"/metrics")
	if err != nil {
		log.Fatalf("smoke: metrics under chaos: %v", err)
	}
	if !strings.Contains(string(metrics), "archlined_chaos_injected_total") {
		log.Fatalf("smoke: metrics missing chaos counter:\n%s", metrics)
	}
	fmt.Printf("smoke: chaos probe: %d ok, %d degraded of %d requests\n", oks, injected, requests)
}

// getBody fetches url and returns the body, failing on non-200.
func getBody(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, body)
	}
	return body, nil
}

// getJSON fetches url and decodes the JSON body into dst.
func getJSON(client *http.Client, url string, dst any) error {
	body, err := getBody(client, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, dst)
}

package server

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"archline/internal/machine"
)

// platformBody renders a minimal valid platform description whose model
// outputs are a pure function of the sustained-gflops knob. Its
// eps_mem has no exact decimal image after the pJ-to-J conversion: an
// encoder that divides by the scale serves a neighbouring value.
func platformBody(id string, gflops float64) string {
	return fmt.Sprintf(`{
		"id": %q, "name": "Upload %s", "class": "mini", "cache_line_bytes": 64,
		"vendor_single_gflops": %g, "vendor_mem_gbs": 20, "idle_w": 3,
		"sustained_single_gflops": %g, "sustained_mem_gbs": 10,
		"eps_s_pj_per_flop": 40, "eps_mem_pj_per_byte": 115.30538922155688,
		"pi1_w": 2, "delta_pi_w": 4
	}`, id, id, gflops*1.25, gflops)
}

// doReq performs one request with optional body and headers, returning
// the response (body fully read and closed).
func doReq(t *testing.T, method, url, body string, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestPlatformUploadLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{DataDir: t.TempDir()})

	// Create.
	resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/platforms", platformBody("dev-board", 8), nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status = %d, body %s", resp.StatusCode, body)
	}
	ack := decode(t, body)
	if ack["id"] != "dev-board" || ack["version"] != float64(1) || ack["outcome"] != "created" {
		t.Fatalf("upload ack = %v", ack)
	}
	etag, _ := ack["etag"].(string)
	if resp.Header.Get("ETag") != etag || !strings.HasPrefix(etag, `"`) {
		t.Errorf("ETag header %q vs ack %q", resp.Header.Get("ETag"), etag)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/platforms/dev-board" {
		t.Errorf("Location = %q", loc)
	}

	// Fetch: canonical bytes, strong ETag, and a 304 on revalidation.
	resp, body = doReq(t, http.MethodGet, ts.URL+"/v1/platforms/dev-board", "", nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != etag {
		t.Fatalf("get status = %d, etag %q", resp.StatusCode, resp.Header.Get("ETag"))
	}
	plat, err := machine.FromJSON(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("served platform does not validate: %v", err)
	}
	canon, err := machine.Canonical(plat)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSuffix(string(body), "\n"); got != string(canon) {
		t.Errorf("served body is not the canonical encoding")
	}
	resp, body = doReq(t, http.MethodGet, ts.URL+"/v1/platforms/dev-board", "",
		map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("revalidation: status = %d, body %q", resp.StatusCode, body)
	}

	// Idempotent re-upload: same bytes, same version.
	resp, body = doReq(t, http.MethodPost, ts.URL+"/v1/platforms", platformBody("dev-board", 8), nil)
	ack = decode(t, body)
	if resp.StatusCode != http.StatusOK || ack["outcome"] != "unchanged" || ack["version"] != float64(1) {
		t.Fatalf("idempotent re-upload: status %d ack %v", resp.StatusCode, ack)
	}

	// Changed re-upload: version bump, new ETag.
	resp, body = doReq(t, http.MethodPost, ts.URL+"/v1/platforms", platformBody("dev-board", 9), nil)
	ack = decode(t, body)
	if resp.StatusCode != http.StatusOK || ack["outcome"] != "updated" || ack["version"] != float64(2) {
		t.Fatalf("re-upload: status %d ack %v", resp.StatusCode, ack)
	}
	if ack["etag"] == etag {
		t.Error("re-upload kept the old ETag")
	}

	// The listing includes the upload alongside the Table I builtins.
	status, listBody := get(t, ts.URL+"/v1/platforms")
	if status != http.StatusOK || !bytes.Contains(listBody, []byte(`"dev-board"`)) {
		t.Fatalf("listing status %d missing upload: %s", status, listBody)
	}

	// Delete, then the platform is gone from GET and the listing.
	resp, _ = doReq(t, http.MethodDelete, ts.URL+"/v1/platforms/dev-board", "", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	status, body = get(t, ts.URL+"/v1/platforms/dev-board")
	wantError(t, status, body, http.StatusNotFound, "not_found")
	_, listBody = get(t, ts.URL+"/v1/platforms")
	if bytes.Contains(listBody, []byte(`"dev-board"`)) {
		t.Error("deleted platform still listed")
	}
}

func TestPlatformUploadErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{DataDir: t.TempDir()})

	status, body := post(t, ts.URL+"/v1/platforms", `{"id": "x"}`)
	wantError(t, status, body, http.StatusBadRequest, "bad_request")
	status, body = post(t, ts.URL+"/v1/platforms", platformBody("dev-board", 8)+"}")
	wantError(t, status, body, http.StatusBadRequest, "bad_request")
	status, body = post(t, ts.URL+"/v1/platforms",
		platformBody("dev-board", 8)+strings.Repeat(" ", 2*DefaultMaxBodyBytes))
	wantError(t, status, body, http.StatusRequestEntityTooLarge, "body_too_large")

	// Built-in Table I entries are read-only, for uploads and deletes.
	status, body = post(t, ts.URL+"/v1/platforms", platformBody("arndale-cpu", 8))
	wantError(t, status, body, http.StatusConflict, "conflict")
	resp, body := doReq(t, http.MethodDelete, ts.URL+"/v1/platforms/arndale-cpu", "", nil)
	wantError(t, resp.StatusCode, body, http.StatusConflict, "conflict")

	resp, body = doReq(t, http.MethodDelete, ts.URL+"/v1/platforms/never-uploaded", "", nil)
	wantError(t, resp.StatusCode, body, http.StatusNotFound, "not_found")
}

func TestPlatformUploadNeedsDataDir(t *testing.T) {
	// Without -data-dir the registry runs in memory: builtins resolve,
	// mutations are politely refused (403, not 5xx — the breaker must
	// not count configuration as failure).
	_, ts := newTestServer(t, Config{})
	status, body := post(t, ts.URL+"/v1/platforms", platformBody("dev-board", 8))
	wantError(t, status, body, http.StatusForbidden, "registry_read_only")
	resp, body := doReq(t, http.MethodDelete, ts.URL+"/v1/platforms/dev-board", "", nil)
	wantError(t, resp.StatusCode, body, http.StatusNotFound, "not_found")
}

func TestPlatformReuploadInvalidatesCache(t *testing.T) {
	s, ts := newTestServer(t, Config{DataDir: t.TempDir()})
	if _, body := post(t, ts.URL+"/v1/platforms", platformBody("dev-board", 8)); len(body) == 0 {
		t.Fatal("upload failed")
	}
	query := `{"platform_id": "dev-board", "intensity": 1000}`
	_, first := post(t, ts.URL+"/v1/query", query)
	_, second := post(t, ts.URL+"/v1/query", query)
	if !bytes.Equal(first, second) {
		t.Fatalf("identical queries disagree:\n%s\n%s", first, second)
	}
	if hits := s.metrics.CacheHits(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}

	// Re-upload with a different sustained rate: the version-keyed cache
	// must never serve the old answer again.
	post(t, ts.URL+"/v1/platforms", platformBody("dev-board", 16))
	_, third := post(t, ts.URL+"/v1/query", query)
	if bytes.Equal(first, third) {
		t.Fatal("query served a stale response after re-upload")
	}
	if inv := s.registry.Stats().Invalidations; inv != 1 {
		t.Errorf("invalidations = %d, want 1", inv)
	}

	// The registry metric families are live on /metrics.
	_, expo := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"archlined_registry_uploads_total 2",
		"archlined_registry_invalidations_total 1",
		"archlined_registry_quarantined_blobs_total 0",
		`archlined_registry_platforms{shard="0"}`,
	} {
		if !bytes.Contains(expo, []byte(want)) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

func TestPlatformPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	const query = `{"platform_id": "dev-board", "w_flops": 1e12, "q_bytes": 3e12}`
	_, ts := newTestServer(t, Config{DataDir: dir})
	_, body := post(t, ts.URL+"/v1/platforms", platformBody("dev-board", 8))
	etag, _ := decode(t, body)["etag"].(string)
	_, before := post(t, ts.URL+"/v1/query", query)

	// The served description is the platform itself: uploading it back
	// changes nothing.
	_, got := get(t, ts.URL+"/v1/platforms/dev-board")
	_, body = post(t, ts.URL+"/v1/platforms", string(got))
	if ack := decode(t, body); ack["outcome"] != "unchanged" || ack["version"] != float64(1) {
		t.Errorf("re-uploading the GET body: %v, want unchanged at version 1", ack)
	}
	ts.Close()

	// A second daemon over the same data directory recovers the upload
	// with the identical version and content hash, and the same answer.
	_, ts2 := newTestServer(t, Config{DataDir: dir})
	resp, _ := doReq(t, http.MethodGet, ts2.URL+"/v1/platforms/dev-board", "", nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != etag {
		t.Fatalf("after restart: status %d, etag %q want %q",
			resp.StatusCode, resp.Header.Get("ETag"), etag)
	}
	status, after := post(t, ts2.URL+"/v1/query", query)
	if status != http.StatusOK || !bytes.Equal(after, before) {
		t.Fatalf("query after restart: %d\n%s\nbefore the restart:\n%s", status, after, before)
	}
}

// TestPlatformReuploadStormHTTP hammers re-uploads of two platform
// variants while readers query concurrently, asserting every response
// is exactly one variant's complete answer — never a mix of old and new
// platform fields, never an error. Run under -race this also proves the
// registry/cache handoff is data-race-free end to end.
func TestPlatformReuploadStormHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{DataDir: t.TempDir()})
	query := `{"platform_id": "dev-board", "intensity": 1000}`

	// Establish the two admissible response bodies single-threaded.
	want := map[string]bool{}
	for _, g := range []float64{8, 16} {
		post(t, ts.URL+"/v1/platforms", platformBody("dev-board", g))
		status, body := post(t, ts.URL+"/v1/query", query)
		if status != http.StatusOK {
			t.Fatalf("seed query: %d %s", status, body)
		}
		want[string(body)] = true
	}
	if len(want) != 2 {
		t.Fatalf("variants not distinguishable: %d distinct bodies", len(want))
	}

	const writers, readers, rounds = 3, 4, 20
	errs := make(chan string, writers*rounds+readers*rounds)
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < rounds; i++ {
				g := []float64{8, 16}[(w+i)%2]
				resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/platforms",
					platformBody("dev-board", g), nil)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("storm upload: %d %s", resp.StatusCode, body)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				status, body := post(t, ts.URL+"/v1/query", query)
				if status != http.StatusOK {
					errs <- fmt.Sprintf("storm query: %d %s", status, body)
					return
				}
				if !want[string(body)] {
					errs <- fmt.Sprintf("mixed-version response: %s", body)
					return
				}
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

package server

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// TestBatchDuplicateItemsSingleEval is the batch dedup acceptance test:
// N identical items in one batch must collapse through the cache +
// singleflight layer to exactly one model evaluation, and every result
// slot must carry the same bytes.
func TestBatchDuplicateItemsSingleEval(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	const n = 16
	item := `{"platform_id":"gtx-titan","intensity":4.0}`
	items := make([]string, n)
	for i := range items {
		items[i] = item
	}
	status, body := post(t, ts.URL+"/v1/batch",
		fmt.Sprintf(`{"items":[%s]}`, strings.Join(items, ",")))
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	var resp struct {
		Items   int               `json:"items"`
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad batch body %q: %v", body, err)
	}
	if resp.Items != n || len(resp.Results) != n {
		t.Fatalf("items = %d, len(results) = %d, want %d", resp.Items, len(resp.Results), n)
	}
	for i, r := range resp.Results {
		if !bytes.Equal(r, resp.Results[0]) {
			t.Errorf("result %d differs from result 0:\n%s\n%s", i, r, resp.Results[0])
		}
	}
	if got := s.ModelEvals(); got != 1 {
		t.Errorf("ModelEvals = %d, want exactly 1 for %d duplicate items", got, n)
	}
	m := decode(t, []byte(resp.Results[0]))
	if m["platform"] != "GTX Titan" {
		t.Errorf("result platform = %v, want GTX Titan", m["platform"])
	}
}

// TestBatchMixedResults: item failures stay per-item. The batch answers
// 200 with an error envelope in the failing slots and real responses in
// the rest, in item order.
func TestBatchMixedResults(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := post(t, ts.URL+"/v1/batch", `{"items":[
		{"platform_id":"gtx-titan","intensity":4.0},
		{"platform_id":"no-such-machine","intensity":4.0},
		{"platform_id":"gtx-titan"},
		{"platform_id":"desktop-cpu","w_flops":1e12,"q_bytes":1e10},
		{"platform_id":"gtx-titan","w_flops":1e12,"q_bytes":0}
	]}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	var resp struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad batch body %q: %v", body, err)
	}
	if len(resp.Results) != 5 {
		t.Fatalf("len(results) = %d, want 5", len(resp.Results))
	}
	if m := decode(t, resp.Results[0]); m["regime"] == nil {
		t.Errorf("result 0 should be a query response, got %s", resp.Results[0])
	}
	for i, wantCode := range map[int]string{1: "not_found", 2: "bad_request"} {
		m := decode(t, resp.Results[i])
		e, ok := m["error"].(map[string]any)
		if !ok {
			t.Fatalf("result %d should be an error envelope, got %s", i, resp.Results[i])
		}
		if e["code"] != wantCode {
			t.Errorf("result %d error code = %v, want %q", i, e["code"], wantCode)
		}
	}
	if m := decode(t, resp.Results[3]); m["time_s"] == nil {
		t.Errorf("result 3 should be a workload response with time_s, got %s", resp.Results[3])
	}
	// Zero traffic: a workload response whose intensity is null.
	if m := decode(t, resp.Results[4]); m["time_s"] == nil || m["intensity"] != nil {
		t.Errorf("result 4 should be a workload response with null intensity, got %s", resp.Results[4])
	}
}

// TestBatchLimits: an empty batch and an oversized batch are both
// request-level errors.
func TestBatchLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, body := post(t, ts.URL+"/v1/batch", `{"items":[]}`)
	wantError(t, status, body, http.StatusBadRequest, "bad_request")

	items := make([]string, maxBatchItems+1)
	for i := range items {
		items[i] = `{"platform_id":"gtx-titan","intensity":4.0}`
	}
	status, body = post(t, ts.URL+"/v1/batch",
		fmt.Sprintf(`{"items":[%s]}`, strings.Join(items, ",")))
	wantError(t, status, body, http.StatusBadRequest, "bad_request")
}

// readStream parses one NDJSON sweep stream into header, chunks, and
// trailer, asserting the line protocol along the way.
func readStream(t *testing.T, r io.Reader) (header map[string]any, chunks []streamChunk, trailer streamTrailer) {
	t.Helper()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var lines [][]byte
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scanning stream: %v", err)
	}
	if len(lines) < 2 {
		t.Fatalf("stream has %d lines, want at least header + trailer", len(lines))
	}
	header = decode(t, lines[0])
	if err := json.Unmarshal(lines[len(lines)-1], &trailer); err != nil {
		t.Fatalf("bad trailer %q: %v", lines[len(lines)-1], err)
	}
	for i, line := range lines[1 : len(lines)-1] {
		var c streamChunk
		if err := json.Unmarshal(line, &c); err != nil {
			t.Fatalf("bad chunk line %d: %q: %v", i, line, err)
		}
		if c.Seq != i {
			t.Errorf("chunk %d has seq %d", i, c.Seq)
		}
		chunks = append(chunks, c)
	}
	return header, chunks, trailer
}

// TestSweepStreamLargeGrid: a 10k-point sweep arrives as multiple
// flushed NDJSON chunks with a done trailer, without the server ever
// holding (or announcing) the full body.
func TestSweepStreamLargeGrid(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/sweep/stream", "application/json",
		strings.NewReader(`{"platform_id":"gtx-titan","imin":0.001,"imax":1000,"points":10000}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	// A buffered response would carry Content-Length; the stream must be
	// chunked (length unknown up front = nothing was accumulated).
	if resp.ContentLength >= 0 {
		t.Errorf("ContentLength = %d, want unknown (chunked)", resp.ContentLength)
	}
	header, chunks, trailer := readStream(t, resp.Body)
	if header["points"] != float64(10000) {
		t.Errorf("header points = %v, want 10000", header["points"])
	}
	wantChunks := (10000 + defaultChunkPoints - 1) / defaultChunkPoints
	if len(chunks) != wantChunks {
		t.Errorf("got %d chunks, want %d", len(chunks), wantChunks)
	}
	if len(chunks) < 2 {
		t.Fatalf("got %d chunks, want at least 2 flushes", len(chunks))
	}
	total := 0
	for _, c := range chunks {
		total += len(c.Points)
	}
	if total != 10000 {
		t.Errorf("streamed %d points, want 10000", total)
	}
	if !trailer.Done || trailer.Chunks != wantChunks || trailer.Points != 10000 {
		t.Errorf("trailer = %+v, want done with %d chunks / 10000 points", trailer, wantChunks)
	}
	if got := s.ModelEvals(); got != 1 {
		t.Errorf("ModelEvals = %d, want 1 per stream", got)
	}
}

// TestSweepStreamMatchesBufferedSweep: the streamed points must be the
// same numbers the buffered roofline endpoint computes for the same
// grid — the stream changes delivery, not the model.
func TestSweepStreamMatchesBufferedSweep(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/sweep/stream", "application/json",
		strings.NewReader(`{"platform_id":"gtx-titan","imin":0.01,"imax":100,"points":25,"chunk_points":7}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, chunks, trailer := readStream(t, resp.Body)
	if !trailer.Done {
		t.Fatalf("trailer = %+v, want done", trailer)
	}
	var streamed []rooflinePoint
	for _, c := range chunks {
		streamed = append(streamed, c.Points...)
	}

	status, body := get(t, ts.URL+"/v1/platforms/gtx-titan/roofline?imin=0.01&imax=100&points=25")
	if status != http.StatusOK {
		t.Fatalf("roofline status = %d: %s", status, body)
	}
	var buffered struct {
		Points []rooflinePoint `json:"points"`
	}
	if err := json.Unmarshal(body, &buffered); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(buffered.Points) {
		t.Fatalf("streamed %d points, buffered %d", len(streamed), len(buffered.Points))
	}
	for i := range streamed {
		got, _ := json.Marshal(streamed[i])
		want, _ := json.Marshal(buffered.Points[i])
		if !bytes.Equal(got, want) {
			t.Errorf("point %d: streamed %s, buffered %s", i, got, want)
		}
	}
}

// TestSweepStreamValidation: grid and chunk bounds are enforced before
// any bytes stream.
func TestSweepStreamValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{"platform_id":"gtx-titan","points":1}`,
		fmt.Sprintf(`{"platform_id":"gtx-titan","points":%d}`, streamMaxPoints+1),
		fmt.Sprintf(`{"platform_id":"gtx-titan","chunk_points":%d}`, maxChunkPoints+1),
		`{"platform_id":"gtx-titan","imin":-1}`,
		`{"platform_id":"gtx-titan","imin":4,"imax":2}`,
	} {
		status, out := post(t, ts.URL+"/v1/sweep/stream", body)
		wantError(t, status, out, http.StatusBadRequest, "bad_request")
	}
	status, out := post(t, ts.URL+"/v1/sweep/stream", `{"platform_id":"nope"}`)
	wantError(t, status, out, http.StatusNotFound, "not_found")
}

// encodedGet performs a GET with an explicit Accept-Encoding, which
// keeps the Go client's transparent decompression out of the way, and
// returns the raw response with its body read.
func encodedGet(t *testing.T, url, acceptEncoding string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", acceptEncoding)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestGzipNegotiation: a large buffered response compresses when asked,
// once: a repeat gzip GET is served the same compressed bytes, with
// their Content-Length, from the cache. The gzip body decompresses to
// the exact bytes a plain client gets, plain clients and clients that
// refuse gzip get those bytes raw, and every variant carries Vary.
func TestGzipNegotiation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	url := ts.URL + "/v1/platforms/gtx-titan/roofline?points=200"

	var zipped [2][]byte
	var evals [2]int64
	for i := range zipped {
		resp, body := encodedGet(t, url, "gzip")
		if ce := resp.Header.Get("Content-Encoding"); ce != "gzip" {
			t.Fatalf("GET %d: Content-Encoding = %q, want gzip", i, ce)
		}
		if vary := resp.Header.Get("Vary"); !strings.Contains(vary, "Accept-Encoding") {
			t.Errorf("GET %d: Vary = %q, want Accept-Encoding", i, vary)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Errorf("GET %d: Content-Length = %q for a %d-byte body", i, cl, len(body))
		}
		zipped[i], evals[i] = body, s.ModelEvals()
	}
	if !bytes.Equal(zipped[0], zipped[1]) {
		t.Errorf("cache hit sent %d compressed bytes, first GET sent %d different ones", len(zipped[1]), len(zipped[0]))
	}
	if evals[1] != evals[0] {
		t.Errorf("second gzip GET ran the model: evals %d -> %d", evals[0], evals[1])
	}

	resp, plain := encodedGet(t, url, "identity")
	if ce := resp.Header.Get("Content-Encoding"); ce != "" {
		t.Errorf("plain GET: Content-Encoding = %q, want identity", ce)
	}
	if vary := resp.Header.Get("Vary"); !strings.Contains(vary, "Accept-Encoding") {
		t.Errorf("plain GET: Vary = %q, want Accept-Encoding", vary)
	}
	if len(plain) < gzipMinBytes {
		t.Fatalf("test body too small (%d bytes) to exercise compression", len(plain))
	}
	gr, err := gzip.NewReader(bytes.NewReader(zipped[0]))
	if err != nil {
		t.Fatal(err)
	}
	unzipped, err := io.ReadAll(gr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(unzipped, plain) {
		t.Errorf("gzip body decompresses to %d bytes, plain body is %d bytes", len(unzipped), len(plain))
	}

	// An explicit q=0 refuses gzip even though the token is present.
	if resp, body := encodedGet(t, url, "gzip;q=0"); resp.Header.Get("Content-Encoding") != "" || !bytes.Equal(body, plain) {
		t.Errorf("q=0 GET: Content-Encoding = %q, want the identity body", resp.Header.Get("Content-Encoding"))
	}
}

// TestGzipSkipsSmallBodies: tiny responses are cheaper raw than framed.
func TestGzipSkipsSmallBodies(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := encodedGet(t, ts.URL+"/healthz", "gzip")
	if ce := resp.Header.Get("Content-Encoding"); ce != "" {
		t.Errorf("Content-Encoding = %q for a tiny body, want identity", ce)
	}
}

// TestSweepStreamGzip: the NDJSON stream compresses end to end and
// still parses line by line after decompression; gzip and plain streams
// alike carry Vary.
func TestSweepStreamGzip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, ae := range []string{"gzip", "identity"} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep/stream",
			strings.NewReader(`{"platform_id":"gtx-titan","points":2000,"chunk_points":500}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept-Encoding", ae)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if vary := resp.Header.Get("Vary"); !strings.Contains(vary, "Accept-Encoding") {
			t.Errorf("%s stream: Vary = %q, want Accept-Encoding", ae, vary)
		}
		var body io.Reader = resp.Body
		ce := resp.Header.Get("Content-Encoding")
		if ae == "gzip" {
			if ce != "gzip" {
				t.Fatalf("gzip stream: Content-Encoding = %q, want gzip", ce)
			}
			if body, err = gzip.NewReader(resp.Body); err != nil {
				t.Fatal(err)
			}
		} else if ce != "" {
			t.Fatalf("identity stream: Content-Encoding = %q, want none", ce)
		}
		_, chunks, trailer := readStream(t, body)
		if len(chunks) != 4 || !trailer.Done || trailer.Points != 2000 {
			t.Errorf("%s stream: got %d chunks, trailer %+v; want 4 chunks done with 2000 points", ae, len(chunks), trailer)
		}
	}
}

// TestAcceptsGzip covers the negotiation parser's corners.
func TestAcceptsGzip(t *testing.T) {
	cases := []struct {
		header string
		want   bool
	}{
		{"", false},
		{"gzip", true},
		{"GZIP", true},
		{"br, gzip;q=0.5", true},
		{"gzip;q=0", false},
		{"gzip; q=0.0", false},
		{"*", true},
		{"identity", false},
		{"br;q=1.0, identity;q=0.5", false},
		// An explicit gzip entry outranks "*", and q is case-insensitive.
		{"*, gzip;q=0", false},
		{"*;q=0, gzip", true},
		{"gzip;Q=0", false},
		// A NaN weight is unparsable, so it counts as 1.
		{"gzip;q=nan", true},
		{"*;q=NaN", true},
	}
	for _, c := range cases {
		r, _ := http.NewRequest(http.MethodGet, "/", nil)
		if c.header != "" {
			r.Header.Set("Accept-Encoding", c.header)
		}
		if got := acceptsGzip(r); got != c.want {
			t.Errorf("acceptsGzip(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

// BenchmarkBatchVsSequential measures the batch endpoint's round-trip
// saving: 64 distinct queries as one /v1/batch POST versus 64 separate
// /v1/query POSTs. Run with -benchtime to taste; the gap is the HTTP +
// handler overhead the batch amortizes.
func BenchmarkBatchVsSequential(b *testing.B) {
	items := make([]string, 64)
	for i := range items {
		items[i] = fmt.Sprintf(`{"platform_id":"gtx-titan","intensity":%g}`, 0.5+float64(i))
	}
	batchBody := fmt.Sprintf(`{"items":[%s]}`, strings.Join(items, ","))

	b.Run("batch", func(b *testing.B) {
		ts := httptest.NewServer(New(Config{}).Handler())
		defer ts.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(batchBody))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		ts := httptest.NewServer(New(Config{}).Handler())
		defer ts.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, item := range items {
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(item))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
		}
	})
}

// BenchmarkSweepStream measures the streaming sweep end to end: a
// 10k-point grid consumed and discarded. Allocations stay flat in grid
// size because only one chunk is ever buffered.
func BenchmarkSweepStream(b *testing.B) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	body := `{"platform_id":"gtx-titan","imin":0.001,"imax":1000,"points":10000}`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/sweep/stream", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

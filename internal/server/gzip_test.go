package server

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// gzipBody is one body shape archlined compresses.
type gzipBody struct {
	name    string
	data    []byte
	perLine bool // a stream, flushed once per NDJSON line
}

// gzipCorpus renders the two body shapes through the real handlers: an
// NDJSON sweep stream and a 65-point roofline, the largest grid of the
// dashboard read mix.
func gzipCorpus(tb testing.TB) []gzipBody {
	tb.Helper()
	h := New(Config{}).Handler()
	serve := func(req *http.Request) []byte {
		req.Header.Set("Accept-Encoding", "identity")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			tb.Fatalf("%s %s: status %d: %s", req.Method, req.URL, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	return []gzipBody{
		{"stream", serve(httptest.NewRequest(http.MethodPost, "/v1/sweep/stream",
			strings.NewReader(`{"platform_id":"gtx-titan","imin":0.001,"imax":1000,"points":16384,"chunk_points":1024}`))), true},
		{"buffered", serve(httptest.NewRequest(http.MethodGet, "/v1/platforms/gtx-titan/roofline?points=65", nil)), false},
	}
}

// countWriter counts the bytes written to it.
type countWriter int

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// gzipSize compresses body with zw and returns the compressed size.
// perLine flushes after every NDJSON line, as startNDJSON sends a
// stream; otherwise the body goes in one write, as gzipped encodes it.
func gzipSize(zw *gzip.Writer, body []byte, perLine bool) int {
	var n countWriter
	zw.Reset(&n)
	for len(body) > 0 {
		i := len(body)
		if perLine {
			if j := bytes.IndexByte(body, '\n'); j >= 0 {
				i = j + 1
			}
		}
		// Writes to a countWriter cannot fail.
		_, _ = zw.Write(body[:i])
		if perLine {
			_ = zw.Flush()
		}
		body = body[i:]
	}
	_ = zw.Close()
	return int(n)
}

func newGzipWriter(tb testing.TB, level int) *gzip.Writer {
	tb.Helper()
	zw, err := gzip.NewWriterLevel(io.Discard, level)
	if err != nil {
		tb.Fatal(err)
	}
	return zw
}

// TestGzipLevelRatio pins the wire cost of gzipLevel: on both body
// shapes it compresses to at most 1.02x the DefaultCompression size.
// Compression output is deterministic, so the bound holds exactly. It
// also checks that a cached body is encoded at gzipLevel, and once.
func TestGzipLevelRatio(t *testing.T) {
	corpus := gzipCorpus(t)
	for _, c := range corpus {
		at := gzipSize(newGzipWriter(t, gzipLevel), c.data, c.perLine)
		def := gzipSize(newGzipWriter(t, gzip.DefaultCompression), c.data, c.perLine)
		t.Logf("%s: %d bytes raw, %d at level %d, %d at the default", c.name, len(c.data), at, gzipLevel, def)
		if float64(at) > 1.02*float64(def) {
			t.Errorf("%s body: %d bytes at level %d, over 1.02x the default's %d", c.name, at, gzipLevel, def)
		}
	}
	buffered := corpus[1].data
	resp := &cachedResponse{body: buffered}
	first := resp.gzipped()
	if want := gzipSize(newGzipWriter(t, gzipLevel), buffered, false); len(first) != want {
		t.Errorf("gzipped() is %d bytes, level %d gives %d", len(first), gzipLevel, want)
	}
	if again := resp.gzipped(); &again[0] != &first[0] {
		t.Error("second gzipped() call compressed the body again")
	}
}

// BenchmarkGzipLevels is the level table gzipLevel is chosen from: CPU
// per raw byte and compression ratio at levels 1-9 and HuffmanOnly, on
// a stream body compressed flush-per-line and on a dashboard-sized
// buffered body compressed whole.
func BenchmarkGzipLevels(b *testing.B) {
	levels := []struct {
		name  string
		level int
	}{
		{"huffman", gzip.HuffmanOnly}, {"1", 1}, {"2", 2}, {"3", 3}, {"4", 4},
		{"5", 5}, {"6", 6}, {"7", 7}, {"8", 8}, {"9", 9},
	}
	for _, c := range gzipCorpus(b) {
		for _, lv := range levels {
			b.Run(c.name+"/level="+lv.name, func(b *testing.B) {
				zw := newGzipWriter(b, lv.level)
				packed := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					packed = gzipSize(zw, c.data, c.perLine)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.data)), "ns/byte")
				b.ReportMetric(float64(len(c.data))/float64(packed), "ratio")
			})
		}
	}
}

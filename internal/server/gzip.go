package server

import (
	"bytes"
	"compress/gzip"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// gzipMinBytes is the smallest response body worth compressing: below
// this the gzip frame overhead and the extra CPU beat the transfer
// saving. Error envelopes and small query responses go out raw.
const gzipMinBytes = 1024

// gzipLevel is the one compression level archlined writes at, chosen by
// a rule: the fastest level whose ratio is within 2% of
// gzip.DefaultCompression on BenchmarkGzipLevels' stream body. On an
// Intel Xeon @ 2.10GHz (2 vCPU) level 4 costs 21.0 ns/byte at ratio
// 5.41, against 30.3 ns/byte at 5.47 for the default; level 3 and
// BestSpeed give up 4% and 11% of the ratio. DESIGN.md §10 has the
// table; TestGzipLevelRatio pins the 2% bound.
const gzipLevel = 4

// gzipWriters recycles compressors across requests; a gzip.Writer's
// allocation dwarfs a small response body.
var gzipWriters = sync.Pool{
	New: func() any {
		zw, err := gzip.NewWriterLevel(io.Discard, gzipLevel)
		if err != nil {
			panic(err) // gzipLevel is a constant in gzip's range
		}
		return zw
	},
}

// acceptsGzip reports whether the request negotiated gzip via
// Accept-Encoding (RFC 9110 §12.5.3): an explicit "gzip" entry decides,
// else a "*" entry does, and a zero weight refuses.
func acceptsGzip(r *http.Request) bool {
	gzipQ, starQ := -1.0, -1.0 // -1: not listed
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc, params, _ := strings.Cut(part, ";")
		switch enc = strings.TrimSpace(enc); {
		case strings.EqualFold(enc, "gzip"):
			gzipQ = qValue(params)
		case enc == "*":
			starQ = qValue(params)
		}
	}
	if gzipQ >= 0 {
		return gzipQ > 0
	}
	return starQ > 0
}

// qValue returns the weight among an Accept-Encoding entry's
// parameters. The name "q" is case-insensitive; an absent or
// unparsable weight counts as 1 and a negative one as 0. "nan" parses
// as a float but is no weight, so it counts as unparsable.
func qValue(params string) float64 {
	for _, p := range strings.Split(params, ";") {
		name, v, _ := strings.Cut(p, "=")
		if strings.EqualFold(strings.TrimSpace(name), "q") {
			if q, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil && !math.IsNaN(q) {
				return max(q, 0)
			}
		}
	}
	return 1
}

// gzipped returns the response's gzip encoding, compressing the
// identity body on the first call only: a cached response is
// compressed once however many gzip clients it serves.
func (c *cachedResponse) gzipped() []byte {
	c.gzipOnce.Do(func() {
		buf := bytes.NewBuffer(make([]byte, 0, len(c.body)/4))
		zw := gzipWriters.Get().(*gzip.Writer)
		zw.Reset(buf)
		// Writes to a bytes.Buffer cannot fail.
		_, _ = zw.Write(c.body)
		_ = zw.Close()
		gzipWriters.Put(zw)
		c.gzipBody = buf.Bytes()
	})
	return c.gzipBody
}

// writeResponseNegotiated emits an encoded body, as its gzip encoding
// when the client negotiated it and the body is large enough to profit.
// Every body past gzipMinBytes could have gone either way, so each one
// carries Vary: Accept-Encoding whatever coding the client got.
func writeResponseNegotiated(w http.ResponseWriter, r *http.Request, resp *cachedResponse) {
	body, h := resp.body, w.Header()
	if len(body) >= gzipMinBytes {
		h.Add("Vary", "Accept-Encoding")
		if acceptsGzip(r) {
			body = resp.gzipped()
			h.Set("Content-Encoding", "gzip")
			h.Set("Content-Length", strconv.Itoa(len(body)))
		}
	}
	h.Set("Content-Type", "application/json")
	w.WriteHeader(resp.status)
	// A failed write means the client went away; same no-recovery rule
	// as writeResponse.
	_, _ = w.Write(body)
}

// ndjsonWriter is the body of a streamed NDJSON response: lines written
// to it go through the gzip frame when the client negotiated one, and
// Flush pushes everything written so far on to the client.
type ndjsonWriter struct {
	io.Writer // the gzip writer, or the ResponseWriter itself
	gz        *gzip.Writer
	flusher   http.Flusher
}

// startNDJSON negotiates a stream's coding, sends the 200 header and
// returns the writer for its lines. The caller must Close it.
func startNDJSON(w http.ResponseWriter, r *http.Request) *ndjsonWriter {
	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Add("Vary", "Accept-Encoding")
	out := &ndjsonWriter{Writer: w}
	if acceptsGzip(r) {
		h.Set("Content-Encoding", "gzip")
		out.gz = gzipWriters.Get().(*gzip.Writer)
		out.gz.Reset(w)
		out.Writer = out.gz
	}
	w.WriteHeader(http.StatusOK)
	out.flusher, _ = w.(http.Flusher)
	return out
}

// Flush pushes the lines written so far to the client: through the gzip
// frame first, then the HTTP chunked writer. A failed flush means the
// client went away; the stream's trailer protocol is its error channel.
func (o *ndjsonWriter) Flush() {
	if o.gz != nil {
		_ = o.gz.Flush()
	}
	if o.flusher != nil {
		o.flusher.Flush()
	}
}

// Close ends the gzip frame, if any, and returns its writer to the pool.
func (o *ndjsonWriter) Close() {
	if o.gz != nil {
		_ = o.gz.Close()
		gzipWriters.Put(o.gz)
		o.gz = nil
	}
}

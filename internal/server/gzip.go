package server

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// gzipMinBytes is the smallest response body worth compressing: below
// this the gzip frame overhead and the extra CPU beat the transfer
// saving. Error envelopes and small query responses go out raw.
const gzipMinBytes = 1024

// gzipLevel is the compression level of every gzip body that is not
// segmented: cached responses, job events and sweeps under one segment.
// It was chosen by a rule: the fastest level whose ratio is within 2%
// of gzip.DefaultCompression on BenchmarkGzipLevels' stream body. On an
// Intel Xeon @ 2.10GHz (2 vCPU) level 4 costs 21.0 ns/byte at ratio
// 5.41, against 30.3 ns/byte at 5.47 for the default; level 3 and
// BestSpeed give up 4% and 11% of the ratio. DESIGN.md §10 has the
// table; TestGzipLevelRatio pins the 2% bound.
const gzipLevel = 4

// Parallel deflate, after pigz (https://zlib.net/pigz/). A gzip body
// expected to exceed one segment, a sweep stream of 2,622 points or
// more, is cut into segments; every other body goes through
// compress/gzip. Each segment is deflated on a goroutine of its own by
// the record encoder (deflate.go), whose matches may reach into the
// dictBytes before the segment, and ends in a sync flush, so the
// segments concatenate into one deflate stream inside one RFC 1952
// member. The first flush cuts a segment where it stands, so a stream's
// header line goes out alone; every later segment holds segmentBytes
// raw bytes, the last one at most that. DESIGN.md §10 has the
// measurements.
const (
	// segmentBytes is the raw size of a segment, and the largest
	// expected body that is not segmented.
	segmentBytes = 512 << 10
	// dictBytes is deflate's window: the most history a segment can
	// refer back into.
	dictBytes = 32 << 10
	// segmentBufBytes is a segment buffer's full size: the dictionary,
	// then one segment.
	segmentBufBytes = dictBytes + segmentBytes
)

// gzipHeader is the member header compress/gzip writes for a Writer
// with no name, comment, extra field or modification time: deflate, no
// flags, XFL 0 (gzipLevel is neither BestSpeed nor BestCompression),
// OS unknown.
var gzipHeader = []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 255}

// gzipWriters recycles the deflaters of the bodies that are not
// segmented; a gzip.Writer's allocation dwarfs a small response body.
var gzipWriters = sync.Pool{
	New: func() any {
		zw, err := gzip.NewWriterLevel(io.Discard, gzipLevel)
		if err != nil {
			panic(err) // gzipLevel is a constant in gzip's range
		}
		return zw
	},
}

// lineWriter is a gzip body's deflater: a pooled compress/gzip writer,
// or a segmentWriter.
type lineWriter interface {
	io.Writer
	Flush() error
	Close() error
}

// segmentBufs recycles segment buffers, taken at their full size so a
// segment never grows by append. A segment buffer holds the segment's
// dictionary, then the segment. putSegment empties one on its way back.
var segmentBufs = sync.Pool{
	New: func() any {
		b := make([]byte, 0, segmentBufBytes)
		return &b
	},
}

func putSegment(b *[]byte) {
	*b = (*b)[:0]
	segmentBufs.Put(b)
}

// deflateSlots holds one token per running segment deflater, at most
// GOMAXPROCS server-wide: concurrent streams never run more deflaters
// than there are cores, so CPU at saturation does not rise.
var deflateSlots = make(chan struct{}, runtime.GOMAXPROCS(0))

// segmentWriter writes one gzip member whose body is deflated in
// segments on every core. It is for one goroutine, which must Close it
// once: Close joins every deflater.
type segmentWriter struct {
	dst     io.Writer
	segSize int // segmentBytes, smaller only in tests
	crc     uint32
	size    int  // raw bytes written; ISIZE is it mod 2^32
	flushed bool // the first Flush has cut its segment
	// seg is the segment being filled, after its dict bytes of
	// dictionary.
	seg  *[]byte
	dict int
	// inflight holds the segments handed to deflaters and not yet
	// written, in body order: at most two per deflater slot, so the
	// writer runs ahead of the deflaters by a bounded amount.
	inflight []chan []byte
	err      error
}

// newSegmentWriter writes a gzip member header to dst and returns the
// writer of a body cut into segments of segSize raw bytes, the first
// of which starts with no dictionary.
func newSegmentWriter(dst io.Writer, segSize int) *segmentWriter {
	z := &segmentWriter{dst: dst, segSize: segSize}
	z.newSegment(nil)
	_, z.err = dst.Write(gzipHeader)
	return z
}

// Write adds p to the segments, handing each one that fills to a
// deflater.
func (z *segmentWriter) Write(p []byte) (int, error) {
	if z.err != nil {
		return 0, z.err
	}
	z.crc = crc32.Update(z.crc, crc32.IEEETable, p)
	z.size += len(p)
	n := len(p)
	for {
		// A full segment is cut once a byte arrives past it, so that
		// Close finds the last one full rather than empty.
		room := z.dict + z.segSize - len(*z.seg)
		if len(p) <= room {
			*z.seg = append(*z.seg, p...)
			return n, nil
		}
		*z.seg = append(*z.seg, p[:room]...)
		p = p[room:]
		if z.cut(false); z.err != nil {
			return n - len(p), z.err
		}
	}
}

// Flush writes out the segments already deflated. The first Flush
// also cuts a segment where it stands and waits for it, so a stream's
// header line reaches the client alone, before any point is computed.
func (z *segmentWriter) Flush() error {
	if z.err != nil {
		return z.err
	}
	if z.flushed {
		z.drain(false)
		return z.err
	}
	z.flushed = true
	z.cut(false)
	z.drain(true)
	return z.err
}

// Close ends the member with a final deflate block, then the CRC-32
// and ISIZE of the raw bytes. It returns once every deflater has, even
// after a failed write.
func (z *segmentWriter) Close() error {
	if z.err == nil {
		z.cut(true)
	}
	if z.seg != nil { // never handed to a deflater: a write failed
		putSegment(z.seg)
		z.seg = nil
	}
	z.drain(true)
	if z.err == nil {
		var trailer [8]byte
		binary.LittleEndian.PutUint32(trailer[:4], z.crc)
		binary.LittleEndian.PutUint32(trailer[4:], uint32(z.size))
		_, z.err = z.dst.Write(trailer[:])
	}
	return z.err
}

// cut hands the segment filled so far to a deflater of its own, after
// writing out the oldest segments while the window is full. The last
// segment ends the deflate stream.
func (z *segmentWriter) cut(last bool) {
	for len(z.inflight) >= 2*cap(deflateSlots) {
		z.writeOldest(<-z.inflight[0])
	}
	if z.err != nil {
		return // the client is gone: deflate no more
	}
	seg, dict := z.seg, z.dict
	z.seg = nil
	if !last {
		// The buffer goes back to the pool once deflated, maybe before
		// the next segment is, so the dictionary is copied now.
		z.newSegment(*seg)
	}
	out := make(chan []byte, 1)
	z.inflight = append(z.inflight, out)
	go deflateSegment(seg, dict, last, out)
}

// newSegment starts the next segment buffer with the last dictBytes of
// history, the end of the stream's raw bytes so far.
func (z *segmentWriter) newSegment(history []byte) {
	z.seg = segmentBufs.Get().(*[]byte)
	*z.seg = append(*z.seg, history[max(0, len(history)-dictBytes):]...)
	z.dict = len(*z.seg)
}

// drain writes out, in body order, the segments whose deflaters are
// done; with wait set, it waits for every one.
func (z *segmentWriter) drain(wait bool) {
	for len(z.inflight) > 0 {
		if wait {
			z.writeOldest(<-z.inflight[0])
			continue
		}
		select {
		case out := <-z.inflight[0]:
			z.writeOldest(out)
		default:
			return
		}
	}
}

// writeOldest writes out the oldest segment in flight, deflated.
func (z *segmentWriter) writeOldest(deflated []byte) {
	z.inflight = z.inflight[1:]
	if z.err == nil {
		_, z.err = z.dst.Write(deflated)
	}
}

// deflateSegment deflates, in a deflater slot, the segment after the
// dict bytes of dictionary in seg, and sends the result on out. A sync
// flush ends it, or the final block when last.
func deflateSegment(seg *[]byte, dict int, last bool, out chan<- []byte) {
	deflateSlots <- struct{}{}
	e := recordEncoders.Get().(*recordEncoder)
	deflated := e.encode(make([]byte, 0, (len(*seg)-dict)/4), *seg, dict, last)
	recordEncoders.Put(e)
	<-deflateSlots
	putSegment(seg)
	out <- deflated
}

// acceptsGzip reports whether the request negotiated gzip via
// Accept-Encoding (RFC 9110 §12.5.3): an explicit "gzip" entry, or its
// equivalent "x-gzip" (§8.4.1.3), decides, else a "*" entry does, and a
// zero weight refuses.
func acceptsGzip(r *http.Request) bool {
	gzipQ, starQ := -1.0, -1.0 // -1: not listed
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc, params, _ := strings.Cut(part, ";")
		switch enc = strings.TrimSpace(enc); {
		case strings.EqualFold(enc, "gzip"), strings.EqualFold(enc, "x-gzip"):
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
// Flush pushes them on to the client.
type ndjsonWriter struct {
	io.Writer // the gzip frame, or the ResponseWriter itself
	gz        lineWriter
	flusher   http.Flusher
}

// startNDJSON negotiates a stream's coding, sends the 200 header and
// returns the writer for its lines, which come to about expected raw
// bytes (0 when unknown). A gzip stream expected to exceed one segment
// is deflated in segments; any other goes through a pooled
// compress/gzip writer. The caller must Close it.
func startNDJSON(w http.ResponseWriter, r *http.Request, expected int) *ndjsonWriter {
	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Add("Vary", "Accept-Encoding")
	gz := acceptsGzip(r)
	if gz {
		h.Set("Content-Encoding", "gzip")
	}
	w.WriteHeader(http.StatusOK)
	out := &ndjsonWriter{Writer: w}
	if gz {
		if expected > segmentBytes {
			out.gz = newSegmentWriter(w, segmentBytes)
		} else {
			zw := gzipWriters.Get().(*gzip.Writer)
			zw.Reset(w)
			out.gz = zw
		}
		out.Writer = out.gz
	}
	out.flusher, _ = w.(http.Flusher)
	return out
}

// Flush pushes the lines written so far to the client: through the gzip
// frame first, then the HTTP chunked writer. A segmented frame holds a
// segment's lines, past the first flush, until the segment fills and
// is deflated. A failed flush means the client went away; the stream's
// trailer protocol is its error channel.
func (o *ndjsonWriter) Flush() {
	if o.gz != nil {
		_ = o.gz.Flush()
	}
	if o.flusher != nil {
		o.flusher.Flush()
	}
}

// Close ends the gzip frame, if any, once every segment is written, and
// gives a compress/gzip writer back to its pool.
func (o *ndjsonWriter) Close() {
	if o.gz != nil {
		_ = o.gz.Close()
		if zw, ok := o.gz.(*gzip.Writer); ok {
			gzipWriters.Put(zw)
		}
		o.gz = nil
	}
}

package server

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"errors"
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
func gzipSize(zw *gzip.Writer, body []byte, perLine bool) int {
	var n countWriter
	zw.Reset(&n)
	writeLines(zw, body, perLine)
	return int(n)
}

// lineWriter is a gzip writer: compress/gzip's or a segmentWriter.
type lineWriter interface {
	io.Writer
	Flush() error
	Close() error
}

// writeLines writes body to zw and closes it. perLine flushes after
// every NDJSON line, as startNDJSON sends a stream; otherwise the body
// goes in one write, as gzipped encodes it. The writers' destinations
// cannot fail.
func writeLines(zw lineWriter, body []byte, perLine bool) {
	for len(body) > 0 {
		i := len(body)
		if perLine {
			if j := bytes.IndexByte(body, '\n'); j >= 0 {
				i = j + 1
			}
		}
		_, _ = zw.Write(body[:i])
		if perLine {
			_ = zw.Flush()
		}
		body = body[i:]
	}
	_ = zw.Close()
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

// TestSegmentWriterBytes: below one segment the segment writer writes
// compress/gzip's bytes at gzipLevel for the same writes and flushes,
// which covers cached bodies, job events and small sweeps. Past it, the
// segments decode to the body and, deflated by the record encoder, come
// to at most 0.92x the serial per-line encoding's wire size.
func TestSegmentWriterBytes(t *testing.T) {
	corpus := gzipCorpus(t)
	h := New(Config{}).Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep/stream",
		strings.NewReader(`{"platform_id":"xeon-phi","precision":"double","points":2000,"chunk_points":500}`))
	req.Header.Set("Accept-Encoding", "identity")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	events := []byte(`{"job":"5f1c","name":"fit","state":"running","replay":2}
{"seq":1,"name":"queued","attrs":{"job":"5f1c","name":"fit"}}
{"seq":2,"name":"running"}
{"seq":3,"name":"suite.done","attrs":{"kernels":24}}
{"seq":4,"name":"state","attrs":{"state":"done"}}
{"done":true,"state":"done","events":4}
`)
	for _, c := range []gzipBody{corpus[1], {"small stream", rec.Body.Bytes(), true}, {"job events", events, true}} {
		if len(c.data) >= segmentBytes {
			t.Fatalf("%s body is %d bytes, want under one segment", c.name, len(c.data))
		}
		var got, want bytes.Buffer
		writeLines(newSegmentWriter(&got, segmentBytes), c.data, c.perLine)
		zw := newGzipWriter(t, gzipLevel)
		zw.Reset(&want)
		writeLines(zw, c.data, c.perLine)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: segment writer wrote %d bytes, compress/gzip %d different ones", c.name, got.Len(), want.Len())
		}
	}

	stream := corpus[0].data
	var segmented bytes.Buffer
	writeLines(newSegmentWriter(&segmented, segmentBytes), stream, true)
	if got := gunzip(t, segmented.Bytes()); !bytes.Equal(got, stream) {
		t.Fatalf("segmented stream decodes to %d bytes, want the %d-byte body", len(got), len(stream))
	}
	serial := gzipSize(newGzipWriter(t, gzipLevel), stream, true)
	t.Logf("stream: %d bytes raw, %d segmented, %d serial", len(stream), segmented.Len(), serial)
	if float64(segmented.Len()) > 0.92*float64(serial) {
		t.Errorf("segmented stream is %d bytes, over 0.92x the serial %d", segmented.Len(), serial)
	}
}

// failAfter accepts that many bytes, then fails every write, as a
// connection whose client has gone.
type failAfter int

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > int(*f) {
		return 0, errors.New("client gone")
	}
	*f -= failAfter(len(p))
	return len(p), nil
}

// TestSegmentWriterJoinsAfterFailedWrite: when a segment's write fails
// with others in flight, the writer reports the error and Close still
// returns only once every deflater has, so none holds a slot after it;
// and the buffers it gives back leave the next stream intact.
func TestSegmentWriterJoinsAfterFailedWrite(t *testing.T) {
	corpus := gzipCorpus(t)[0].data
	// Four times the corpus stream: more segments than the window holds.
	stream := bytes.Repeat(corpus, 4)
	dst := failAfter(150 << 10) // past the serial part, inside the first segment
	zw := newSegmentWriter(&dst, segmentBytes)
	var err error
	for body := stream; len(body) > 0 && err == nil; {
		i := bytes.IndexByte(body, '\n') + 1
		if _, err = zw.Write(body[:i]); err == nil {
			err = zw.Flush()
		}
		body = body[i:]
	}
	if err == nil {
		t.Fatalf("a %d-byte stream never reached the failing write", len(stream))
	}
	if cerr := zw.Close(); cerr == nil {
		t.Error("Close after a failed write reported no error")
	}
	if n := len(deflateSlots); n != 0 {
		t.Errorf("%d deflaters still running after Close", n)
	}
	var next bytes.Buffer
	writeLines(newSegmentWriter(&next, segmentBytes), corpus, true)
	if got := gunzip(t, next.Bytes()); !bytes.Equal(got, corpus) {
		t.Errorf("the stream after a failed one decodes to %d bytes, want the %d-byte body", len(got), len(corpus))
	}
}

// FuzzSegmentWriter holds the segment writer to compress/gzip on an
// arbitrary body, written in arbitrary pieces with arbitrary flushes at
// a segment size small enough to cut it, under an arbitrary size hint:
// gzip.Reader, which checks the CRC-32 and ISIZE, must return the body
// exactly, and below one segment, with a hint under two, the bytes must
// be compress/gzip's. Each splits byte is one write of 1 + s>>1 bytes,
// flushed when s is odd, used in turn; repeat copies the body so short
// inputs reach past the 32 KiB dictionary, and draws the hint too, in
// 64ths of a segment, so that from 128 on the serial part ends at the
// first flush.
func FuzzSegmentWriter(f *testing.F) {
	f.Add([]byte(`{"seq":0,"points":[{"intensity":0.5,"regime":"M"}]}`+"\n"), []byte{1, 9, 200}, uint16(100), uint8(0))
	f.Add([]byte("abcdefgh"), []byte{255}, uint16(40000), uint8(127))
	f.Add([]byte(`{"seq":0,"points":[{"intensity":0.5,"regime":"M"}]}`+"\n"), []byte{3, 200, 7}, uint16(700), uint8(200))
	f.Fuzz(func(t *testing.T, body, splits []byte, seg uint16, repeat uint8) {
		body = bytes.Repeat(body, 1+int(repeat))
		// At least len/32: each segment costs a deflater's allocation.
		segSize := max(1+int(seg), len(body)/32)
		expected := int(repeat) * segSize / 64
		var got, want bytes.Buffer
		zw := newSizedSegmentWriter(&got, segSize, expected)
		ref := newGzipWriter(t, gzipLevel)
		ref.Reset(&want)
		for i, rest := 0, body; len(rest) > 0; i++ {
			n, flush := len(rest), false
			if len(splits) > 0 {
				s := splits[i%len(splits)]
				n, flush = min(n, 1+int(s>>1)), s&1 == 1
			}
			for _, w := range []lineWriter{zw, ref} {
				if _, err := w.Write(rest[:n]); err != nil {
					t.Fatal(err)
				}
				if flush {
					if err := w.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			rest = rest[n:]
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		_ = ref.Close()
		if out := gunzip(t, got.Bytes()); !bytes.Equal(out, body) {
			t.Fatalf("decodes to %d bytes, want the %d-byte body", len(out), len(body))
		}
		if len(body) < segSize && expected < 2*segSize && !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("below one segment: %d bytes, compress/gzip wrote %d different ones", got.Len(), want.Len())
		}
	})
}

// BenchmarkGzipLevels is the level table gzipLevel is chosen from: CPU
// per raw byte and compression ratio at levels 1-9 and HuffmanOnly, on
// a stream body compressed flush-per-line and on a dashboard-sized
// buffered body compressed whole. Its segments rows deflate the stream
// body as the segment writer does past its serial part, in segmentBytes
// segments each primed with the dictBytes before it: by the record
// encoder, and by a level-4 flate.NewWriterDict per segment.
func BenchmarkGzipLevels(b *testing.B) {
	levels := []struct {
		name  string
		level int
	}{
		{"huffman", gzip.HuffmanOnly}, {"1", 1}, {"2", 2}, {"3", 3}, {"4", 4},
		{"5", 5}, {"6", 6}, {"7", 7}, {"8", 8}, {"9", 9},
	}
	corpus := gzipCorpus(b)
	for _, c := range corpus {
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
	stream := corpus[0].data
	encoders := []struct {
		name    string
		deflate func(dst, buf []byte, start int, last bool) []byte
	}{
		{"record", func(dst, buf []byte, start int, last bool) []byte {
			e := recordEncoders.Get().(*recordEncoder)
			defer recordEncoders.Put(e)
			return e.encode(dst, buf, start, last)
		}},
		{"level4", func(dst, buf []byte, start int, last bool) []byte {
			out := bytes.NewBuffer(dst)
			fw, err := flate.NewWriterDict(out, gzipLevel, buf[:start])
			if err != nil {
				panic(err) // gzipLevel is a constant in flate's range
			}
			_, _ = fw.Write(buf[start:])
			if last {
				_ = fw.Close()
			} else {
				_ = fw.Flush()
			}
			return out.Bytes()
		}},
	}
	for _, enc := range encoders {
		b.Run("segments/encoder="+enc.name, func(b *testing.B) {
			var out []byte
			for i := 0; i < b.N; i++ {
				out = out[:0]
				for at := 0; at < len(stream); at += segmentBytes {
					end := min(at+segmentBytes, len(stream))
					from := max(0, at-dictBytes)
					out = enc.deflate(out, stream[from:end], at-from, end == len(stream))
				}
			}
			b.StopTimer()
			if got := inflate(b, out, nil); !bytes.Equal(got, stream) {
				b.Fatalf("segments decode to %d bytes, want the %d-byte stream", len(got), len(stream))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns/byte")
			b.ReportMetric(float64(len(stream))/float64(len(out)), "ratio")
		})
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"archline/internal/machine"
	"archline/internal/model"
	"archline/internal/units"
)

// legacyStreamBody reproduces the pre-kernel stream encoding: the
// Params methods evaluated per point, every line marshaled through
// encoding/json. It is the reference the golden test holds the
// hand-rolled kernel path to, byte for byte.
func legacyStreamBody(platID, name, precision string, p model.Params, g sweepGrid, chunk int) []byte {
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	_ = enc.Encode(streamHeader{
		PlatformID: platID, Name: name, Precision: precision,
		IMin: g.IMin, IMax: g.IMax, Points: g.Points, ChunkPoints: chunk,
	})
	l0, l1 := math.Log(g.IMin), math.Log(g.IMax)
	buf := make([]rooflinePoint, 0, chunk)
	chunks := 0
	for start := 0; start < g.Points; start += chunk {
		end := start + chunk
		if end > g.Points {
			end = g.Points
		}
		buf = buf[:0]
		for k := start; k < end; k++ {
			frac := float64(k) / float64(g.Points-1)
			i := units.Intensity(math.Exp(l0 + frac*(l1-l0)))
			buf = append(buf, rooflinePoint{
				Intensity:           i.Ratio(),
				Regime:              p.RegimeAt(i).Letter(),
				FlopsPerSec:         p.FlopRateAt(i).FlopsPerSec(),
				UncappedFlopsPerSec: p.FlopRateAtUncapped(i).FlopsPerSec(),
				FlopsPerJoule:       p.FlopsPerJouleAt(i).FlopsPerJoule(),
				AvgPowerW:           p.AvgPowerAt(i).Watts(),
				Throttle:            nf(p.ThrottleFactor(i)),
			})
		}
		_ = enc.Encode(streamChunk{Seq: chunks, Points: buf})
		chunks++
	}
	_ = enc.Encode(streamTrailer{Done: true, Chunks: chunks, Points: g.Points})
	return out.Bytes()
}

// streamBodyFor posts one stream request and returns the whole NDJSON
// body (transparently de-gzipped by the client, which matches the
// uncompressed encoding byte for byte).
func streamBodyFor(t *testing.T, tsURL, platformID, precision string, g sweepGrid, chunk int) []byte {
	t.Helper()
	body := fmt.Sprintf(
		`{"platform_id":%q,"precision":%q,"imin":%g,"imax":%g,"points":%d,"chunk_points":%d}`,
		platformID, precision, g.IMin, g.IMax, g.Points, chunk)
	status, out := post(t, tsURL+"/v1/sweep/stream", body)
	if status != http.StatusOK {
		t.Fatalf("%s/%s: status = %d: %s", platformID, precision, status, out)
	}
	return out
}

// TestSweepStreamGoldenBytes is the refactor's wire-level contract:
// for every built-in platform (both precisions where supported) and an
// uploaded platform that exists in no table, the kernel-evaluated,
// hand-encoded stream must be byte-identical to the legacy
// Params-per-point, encoding/json path. The grid is sized so chunks end
// unevenly and the values span both float formats ('f' and 'e').
func TestSweepStreamGoldenBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{DataDir: t.TempDir()})
	g := sweepGrid{IMin: 0.01, IMax: 5000, Points: 229}
	const chunk = 64

	uploadJSON := platformBody("golden-upload", 8)
	if resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/platforms", uploadJSON, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status = %d: %s", resp.StatusCode, body)
	}
	uploaded, err := machine.FromJSON(strings.NewReader(uploadJSON))
	if err != nil {
		t.Fatal(err)
	}

	type target struct {
		plat      *machine.Platform
		precision string
	}
	targets := []target{{uploaded, "single"}}
	for _, plat := range machine.All() {
		targets = append(targets, target{plat, "single"})
		if plat.SupportsDouble() {
			targets = append(targets, target{plat, "double"})
		}
	}
	for _, tg := range targets {
		p, aerr := paramsFor(tg.plat, tg.precision)
		if aerr != nil {
			t.Fatalf("%s/%s: %v", tg.plat.ID, tg.precision, aerr)
		}
		got := streamBodyFor(t, ts.URL, string(tg.plat.ID), tg.precision, g, chunk)
		want := legacyStreamBody(string(tg.plat.ID), tg.plat.Name, tg.precision, p, g, chunk)
		if !bytes.Equal(got, want) {
			// Localize the first differing line for the failure message.
			gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if !bytes.Equal(gl[i], wl[i]) {
					t.Fatalf("%s/%s: stream line %d differs\n got: %.200s\nwant: %.200s",
						tg.plat.ID, tg.precision, i, gl[i], wl[i])
				}
			}
			t.Fatalf("%s/%s: stream length %d, legacy encoding %d", tg.plat.ID, tg.precision, len(got), len(want))
		}
	}
}

// encoderEdgePoints are adversarial (intensity, rate, uncapped rate,
// efficiency, power, throttle) values for the chunk encoder: magnitudes
// that flip the float format to 'e' (with the exponent-zero cleanup),
// exact zeros that trigger omitempty, and non-finite throttles that the
// nf box drops. FuzzStreamChunk starts from them.
var encoderEdgePoints = [][6]float64{
	{0.125, 3.5e11, 4e11, 2.1e9, 95.25, 1},
	{1e-7, 1.5e21, 0, 5e-7, 1e21, 0},              // 'e' format, omitted uncapped
	{2.5e22, 1e-6, 1e-7, 123456789.123, 0, 0.5},   // exponent boundary both sides
	{4, 0, 0, 0, -7.5, math.NaN()},                // zeros kept, NaN throttle dropped
	{64, 9.999e20, 1e-99, 1e300, 42, math.Inf(1)}, // tiny 'e' with long exponent
}

// edgePoint builds a compute-bound point from encoder test values.
func edgePoint(iv, rate, uncapped, eff, power, throttle float64) model.Point {
	return model.Point{
		Intensity: iv, Regime: model.ComputeBound,
		FlopsPerSec: rate, UncappedFlopsPerSec: uncapped,
		FlopsPerJoule: eff, AvgPowerW: power, Throttle: throttle,
	}
}

// wirePoint is pt as the rooflinePoint that encoding/json marshals.
func wirePoint(pt model.Point) rooflinePoint {
	return rooflinePoint{
		Intensity:           pt.Intensity,
		Regime:              pt.Regime.Letter(),
		FlopsPerSec:         pt.FlopsPerSec,
		UncappedFlopsPerSec: pt.UncappedFlopsPerSec,
		FlopsPerJoule:       pt.FlopsPerJoule,
		AvgPowerW:           pt.AvgPowerW,
		Throttle:            nf(pt.Throttle),
	}
}

// TestStreamChunkEncoderMatchesEncodingJSON pins the hand-rolled
// encoder against encoding/json on encoderEdgePoints in one chunk, and
// on non-finite required values that must drop the whole line just as
// a failed Encode wrote nothing.
func TestStreamChunkEncoderMatchesEncodingJSON(t *testing.T) {
	pts := make([]model.Point, 0, len(encoderEdgePoints))
	wire := make([]rooflinePoint, 0, len(encoderEdgePoints))
	for _, v := range encoderEdgePoints {
		pt := edgePoint(v[0], v[1], v[2], v[3], v[4], v[5])
		pts = append(pts, pt)
		wire = append(wire, wirePoint(pt))
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(streamChunk{Seq: 7, Points: wire}); err != nil {
		t.Fatal(err)
	}
	got, ok := appendStreamChunk(nil, 7, pts)
	if !ok {
		t.Fatal("appendStreamChunk reported non-finite for finite points")
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("encoder mismatch\n got: %s\nwant: %s", got, want.Bytes())
	}

	// A non-finite required value fails encoding/json's Encode (which
	// then writes nothing); the appender must report the same.
	bad := []model.Point{edgePoint(1, math.Inf(1), 0, 1, 1, 1)}
	if _, ok := appendStreamChunk(nil, 0, bad); ok {
		t.Fatal("appendStreamChunk accepted a non-finite required value")
	}
	badWire := []rooflinePoint{{Intensity: 1, Regime: "C", FlopsPerSec: math.Inf(1)}}
	if err := json.NewEncoder(&bytes.Buffer{}).Encode(streamChunk{Points: badWire}); err == nil {
		t.Fatal("encoding/json accepted a non-finite value; drop-line parity assumption broken")
	}
}

// FuzzStreamChunk holds appendStreamChunk to encoding/json on one point
// of arbitrary float64 values: the bytes must be equal, and the
// appender must report a non-finite value exactly when Encode fails
// (the drop-the-line parity).
func FuzzStreamChunk(f *testing.F) {
	for _, v := range encoderEdgePoints {
		f.Add(v[0], v[1], v[2], v[3], v[4], v[5])
	}
	f.Fuzz(func(t *testing.T, iv, rate, uncapped, eff, power, throttle float64) {
		pt := edgePoint(iv, rate, uncapped, eff, power, throttle)
		var want bytes.Buffer
		err := json.NewEncoder(&want).Encode(streamChunk{Seq: 7, Points: []rooflinePoint{wirePoint(pt)}})
		got, ok := appendStreamChunk(nil, 7, []model.Point{pt})
		if ok != (err == nil) {
			t.Fatalf("appendStreamChunk ok = %v, encoding/json error = %v", ok, err)
		}
		if ok && !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("encoder mismatch\n got: %s\nwant: %s", got, want.Bytes())
		}
	})
}

// BenchmarkAppendStreamChunk renders, per op, one 4096-point chunk line
// of each built-in's single-precision stream over the default grid: ns
// per point, with no allocation into a line buffer of the working size.
func BenchmarkAppendStreamChunk(b *testing.B) {
	var chunks [][]model.Point
	for _, plat := range machine.All() {
		k := model.NewKernel(plat.Single)
		chunks = append(chunks, k.AppendLogSpace(nil, math.Log(defaultIMin), math.Log(defaultIMax),
			0, maxChunkPoints, maxChunkPoints))
	}
	line := make([]byte, 0, 1<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for seq, pts := range chunks {
			line, _ = appendStreamChunk(line[:0], seq, pts)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(chunks)*maxChunkPoints), "ns/point")
}

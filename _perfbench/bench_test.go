package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"archline/internal/machine"
	"archline/internal/model"
)

func TestStreamDigestIsSeeded(t *testing.T) {
	for _, w := range []string{wDashboard, wSweep, wRefit} {
		a := streamDigest(w, 1)
		if b := streamDigest(w, 1); a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", w, a, b)
		}
		if c := streamDigest(w, 2); c == a {
			t.Errorf("%s: seeds 1 and 2 share digest %s", w, a)
		}
	}
}

func TestRefitBlockFollowsZipf(t *testing.T) {
	counts := make([]int, len(refitPool))
	for _, i := range refitBlock {
		counts[i]++
	}
	if want := []int{9, 4, 3, 2, 2}; fmt.Sprint(counts) != fmt.Sprint(want) {
		t.Errorf("refit block draws %v cycles per platform, want %v", counts, want)
	}
}

// serveOK runs one request in process and returns its identity body.
func serveOK(t *testing.T, p *inproc, method, path string, body []byte) []byte {
	t.Helper()
	rec, _ := p.serve(context.Background(), method, path, body, false)
	if rec.Code != http.StatusOK && rec.Code != http.StatusCreated {
		t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.Bytes())
	}
	return bytes.Clone(rec.Body.Bytes())
}

func TestVerifierRejectsPerturbedFloat(t *testing.T) {
	p := newInproc(t.TempDir())
	sp := &spec{op: opQuery, plats: []string{string(machine.GTXTitan)}, intensities: []float64{2.5}}
	sp.post("/v1/query", map[string]any{"platform_id": sp.plats[0], "intensity": 2.5})
	body := serveOK(t, p, sp.method, sp.path, sp.body)
	if err := verify(sp, body); err != nil {
		t.Fatalf("genuine answer rejected: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	doc["flops_per_sec"] = math.Nextafter(doc["flops_per_sec"].(float64), math.Inf(1))
	bad, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify(sp, bad); err == nil {
		t.Fatal("a one-ulp change to flops_per_sec passed the verifier")
	}
}

func TestVerifierRejectsTruncatedStream(t *testing.T) {
	p := newInproc(t.TempDir())
	sp := &spec{op: opStream, plats: []string{string(machine.GTXTitan)}, precision: "single",
		points: 8192, chunk: 1024, sample: []int{0, 5000, 8191}}
	sp.post("/v1/sweep/stream", map[string]any{"platform_id": sp.plats[0], "precision": "single",
		"points": 8192, "chunk_points": 1024})
	body := serveOK(t, p, sp.method, sp.path, sp.body)
	if err := verify(sp, body); err != nil {
		t.Fatalf("genuine stream rejected: %v", err)
	}
	lines := bytes.SplitAfter(body, []byte("\n")) // header, 8 chunks, trailer, ""
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"trailer dropped", bytes.Join(lines[:len(lines)-2], nil)},
		{"chunk dropped", append(bytes.Join(lines[:3], nil), bytes.Join(lines[4:], nil)...)},
		{"chunk cut short", append(bytes.Join(lines[:2], nil), append(lines[2][:len(lines[2])/2:len(lines[2])/2], '\n')...)},
	} {
		if err := verify(sp, c.body); err == nil {
			t.Errorf("%s: truncated stream passed the verifier", c.name)
		}
	}
}

func TestVerifierRejectsWrongVersionRoofline(t *testing.T) {
	p := newInproc(t.TempDir())
	base := machine.MustByID(machine.GTXTitan)
	const id = "refit-gtx-titan"
	v1 := truthFit(base)
	v2 := v1
	v2.Pi1W *= 1.1
	var versions []model.Params
	for _, f := range []fittedParams{v1, v2} {
		body, err := uploadBody(base, id, f)
		if err != nil {
			t.Fatal(err)
		}
		serveOK(t, p, http.MethodPost, "/v1/platforms", body)
		plat, err := machine.FromJSON(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, plat.Single)
	}
	body := serveOK(t, p, http.MethodGet, "/v1/platforms/"+id+"/roofline?points=33", nil)
	if err := verifyRoofline(body, id, versions[1], "single", 33); err != nil {
		t.Fatalf("current version rejected: %v", err)
	}
	if err := verifyRoofline(body, id, versions[0], "single", 33); err == nil {
		t.Fatal("the roofline passed against the superseded version's constants")
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	line := func(id, parent uint64, name string, startMS, durMS float64) string {
		start := t0.Add(time.Duration(startMS * float64(time.Millisecond))).Format(time.RFC3339Nano)
		return fmt.Sprintf(`{"trace":"x","span":%d,"parent":%d,"name":%q,"start":%q,"dur_ms":%g}`+"\n",
			id, parent, name, start, durMS)
	}
	// Children [1,4] and [3,6] overlap: together they cover 5 of the
	// root's 10 ms.
	log := line(2, 1, "child", 1, 3) + line(3, 1, "child", 3, 3) + line(1, 0, "root", 0, 10)
	self, count, err := selfTimes([]byte(log))
	if err != nil {
		t.Fatal(err)
	}
	if self["root"] != 5*time.Millisecond || self["child"] != 6*time.Millisecond || count["child"] != 2 {
		t.Errorf("self times %v over %v spans; want root 5ms, child 6ms over 2", self, count)
	}
}

func TestCompareRefusesDifferentHosts(t *testing.T) {
	dir := t.TempDir()
	// Each file is a run's whole standard output: its record, then its
	// result line.
	write := func(name string, h host) string {
		m := metrics{"latency_p50_ms": {Value: 1, Unit: "ms"}}
		rec, err := json.Marshal(record{Host: h, Workload: wDashboard, Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		res, err := json.Marshal(result{Correct: true, Attempted: 1, Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, fmt.Appendf(nil, "%s\n%s\n", rec, res), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a", host{GoVersion: "go1.22", NProc: 2})
	b := write("b", host{GoVersion: "go1.22", NProc: 4})
	if code := compareMain([]string{a, a}, io.Discard, io.Discard); code != 0 {
		t.Errorf("same host: exit %d, want 0", code)
	}
	if code := compareMain([]string{a, b}, io.Discard, io.Discard); code != 3 {
		t.Errorf("different hosts: exit %d, want 3 (refused)", code)
	}
}

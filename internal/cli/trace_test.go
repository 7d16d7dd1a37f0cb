package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// spanLine is the NDJSON wire form the trace tests decode.
type spanLine struct {
	Trace  string         `json:"trace"`
	Span   uint64         `json:"span"`
	Parent uint64         `json:"parent"`
	Name   string         `json:"name"`
	Start  string         `json:"start"`
	DurMS  float64        `json:"dur_ms"`
	Events []spanEvent    `json:"events"`
	Attrs  map[string]any `json:"attrs"`
}

type spanEvent struct {
	Name  string         `json:"name"`
	Attrs map[string]any `json:"attrs"`
}

// TestMeasureTraceOut runs the full fault-injected measure pipeline with
// -trace-out and checks the exported NDJSON is a well-formed span tree:
// every line parses, every parent resolves, one trace ID covers the
// whole run, the measure→sanitize→fit layers all appear, and at least
// one fault retry or Huber re-fit event survives in the trace.
func TestMeasureTraceOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	var out, errb bytes.Buffer
	code := Main([]string{"-platform", "gtx-titan", "-points", "10",
		"-faults", "paper", "-fault-seed", "1", "-trace-out", path, "measure"}, &out, &errb)
	if code != ExitOK {
		t.Fatalf("measure -trace-out exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "trace: ") {
		t.Errorf("stdout missing trace summary line: %s", out.String())
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[uint64]spanLine{}
	var spans []spanLine
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var s spanLine
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("trace line is not JSON: %v (%q)", err, line)
		}
		spans = append(spans, s)
		byID[s.Span] = s
	}
	if len(spans) < 10 {
		t.Fatalf("only %d spans exported; want a full pipeline tree", len(spans))
	}

	names := map[string]int{}
	events := map[string]int{}
	var roots int
	for _, s := range spans {
		names[s.Name]++
		for _, e := range s.Events {
			events[e.Name]++
		}
		if s.Trace != spans[0].Trace {
			t.Errorf("span %d has trace %q, want single trace %q", s.Span, s.Trace, spans[0].Trace)
		}
		if s.Parent == 0 {
			roots++
			continue
		}
		if _, ok := byID[s.Parent]; !ok {
			t.Errorf("span %d (%s) has unresolved parent %d", s.Span, s.Name, s.Parent)
		}
	}
	if roots != 1 {
		t.Errorf("span tree has %d roots, want exactly 1 (archline.measure)", roots)
	}
	for _, want := range []string{"archline.measure", "microbench.suite",
		"microbench.kernel", "sim.measure", "powermon.sanitize", "fit.platform"} {
		if names[want] == 0 {
			t.Errorf("trace missing %q spans; got %v", want, names)
		}
	}
	if events["fault.retry"]+events["huber.refit"] == 0 {
		t.Errorf("trace has neither fault.retry nor huber.refit events; got %v", events)
	}
}

// TestMeasureTraceDeterministic re-runs the same traced measurement and
// compares the two files with timestamps and durations stripped: the
// span tree (ids, names, parents, attrs, events) must be identical.
func TestMeasureTraceDeterministic(t *testing.T) {
	run := func(path string) []string {
		var out, errb bytes.Buffer
		code := Main([]string{"-platform", "gtx-titan", "-points", "10",
			"-faults", "paper", "-fault-seed", "1", "-trace-out", path, "measure"}, &out, &errb)
		if code != ExitOK {
			t.Fatalf("measure exit %d, stderr: %s", code, errb.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var shapes []string
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			var s spanLine
			if err := json.Unmarshal([]byte(line), &s); err != nil {
				t.Fatal(err)
			}
			s.Start, s.DurMS = "", 0
			shape, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			shapes = append(shapes, string(shape))
		}
		return shapes
	}
	dir := t.TempDir()
	a := run(filepath.Join(dir, "a.ndjson"))
	b := run(filepath.Join(dir, "b.ndjson"))
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Error("span tree differs across identical seeded runs")
	}
}

// TestMeasureWorkersInvariant runs the traced fault-injected measure at
// one and at eight kernel workers into the same trace path: -workers
// buys wall clock only, so stdout must be byte-equal and the span trees
// (ids, parents, line order) equal once timestamps are stripped.
func TestMeasureWorkersInvariant(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	run := func(workers string) (string, string) {
		var out, errb bytes.Buffer
		code := Main([]string{"-workers", workers, "-platform", "gtx-titan", "-points", "10",
			"-faults", "paper", "-fault-seed", "1", "-trace-out", path, "measure"}, &out, &errb)
		if code != ExitOK {
			t.Fatalf("measure -workers %s exit %d, stderr: %s", workers, code, errb.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var shapes []string
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			var s spanLine
			if err := json.Unmarshal([]byte(line), &s); err != nil {
				t.Fatal(err)
			}
			s.Start, s.DurMS = "", 0
			shape, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			shapes = append(shapes, string(shape))
		}
		return out.String(), strings.Join(shapes, "\n")
	}
	out1, trace1 := run("1")
	out8, trace8 := run("8")
	if out1 != out8 {
		t.Errorf("stdout differs between -workers 1 and -workers 8:\n%s\nvs\n%s", out1, out8)
	}
	if trace1 != trace8 {
		t.Error("span tree differs between -workers 1 and -workers 8")
	}
}

// TestServeTraceLogAndPprof boots the daemon with -trace-log and -pprof:
// the profile index must be served, and each handled request must land
// in the trace log as an http.* span.
func TestServeTraceLogAndPprof(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	orig := serveContext
	serveContext = func() (context.Context, context.CancelFunc) {
		return context.WithCancel(ctx)
	}
	defer func() { serveContext = orig }()

	tracePath := filepath.Join(t.TempDir(), "spans.ndjson")
	var out, errb lockedBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- Main([]string{"serve", "-addr", "127.0.0.1:0",
			"-trace-log", tracePath, "-pprof"}, &out, &errb)
	}()

	var base string
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && base == "" {
		if _, rest, ok := strings.Cut(out.String(), "listening on "); ok {
			if url, _, ok := strings.Cut(rest, "\n"); ok {
				base = strings.TrimSpace(url)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if base == "" {
		t.Fatalf("daemon never announced its address; stderr: %s", errb.String())
	}

	for _, path := range []string{"/healthz", "/debug/pprof/"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}

	cancel()
	select {
	case code := <-exit:
		if code != ExitOK {
			t.Errorf("serve exit code %d; stderr: %s", code, errb.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down after cancellation")
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"name":"http./healthz"`) {
		t.Errorf("trace log missing the handled request's span: %s", data)
	}
}

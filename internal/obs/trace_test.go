package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// stepClock returns a deterministic clock advancing step per call.
func stepClock(step time.Duration) func() time.Time {
	t := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	return func() time.Time {
		cur := t
		t = t.Add(step)
		return cur
	}
}

// parseLines decodes every NDJSON line in buf.
func parseLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var recs []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		recs = append(recs, m)
	}
	return recs
}

func TestSpanTreeExport(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.SetClock(stepClock(time.Millisecond))
	ctx := WithTracer(context.Background(), tr)

	ctx, root := Start(ctx, "suite", String("platform", "gtx-titan"))
	cctx, child := Start(ctx, "kernel", Int("rep", 2))
	child.Event("fault.retry", Int("attempt", 1), String("error", "meter disconnect"))
	child.SetAttr(Bool("kept", true))
	child.End()
	root.End()

	if got := SpanFrom(cctx); got != child {
		t.Fatalf("SpanFrom(child ctx) = %v, want child span", got)
	}
	recs := parseLines(t, &buf)
	if len(recs) != 2 {
		t.Fatalf("want 2 span lines (child first), got %d", len(recs))
	}
	c, r := recs[0], recs[1]
	if c["name"] != "kernel" || r["name"] != "suite" {
		t.Fatalf("names = %v, %v", c["name"], r["name"])
	}
	if c["trace"] != r["trace"] {
		t.Errorf("child trace %v != root trace %v", c["trace"], r["trace"])
	}
	if c["parent"] != r["span"] {
		t.Errorf("child parent %v != root span %v", c["parent"], r["span"])
	}
	if _, hasParent := r["parent"]; hasParent {
		t.Error("root span should omit parent")
	}
	attrs := c["attrs"].(map[string]any)
	if attrs["rep"] != float64(2) || attrs["kept"] != true {
		t.Errorf("child attrs = %v", attrs)
	}
	events := c["events"].([]any)
	ev := events[0].(map[string]any)
	if ev["name"] != "fault.retry" {
		t.Errorf("event = %v", ev)
	}
	evAttrs := ev["attrs"].(map[string]any)
	if evAttrs["attempt"] != float64(1) || evAttrs["error"] != "meter disconnect" {
		t.Errorf("event attrs = %v", evAttrs)
	}
	if c["dur_ms"].(float64) < 0 || r["dur_ms"].(float64) <= 0 {
		t.Errorf("durations: child %v, root %v", c["dur_ms"], r["dur_ms"])
	}
	st := tr.Stats()
	if st.Started != 2 || st.Ended != 2 || st.Events != 1 || st.WriteErrors != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRootTraceAdoptsRequestID(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	ctx := WithRequestID(WithTracer(context.Background(), tr), "req-abc123")
	_, span := Start(ctx, "http./v1/query")
	if span.TraceID() != "req-abc123" {
		t.Fatalf("trace = %q, want request ID", span.TraceID())
	}
	span.End()
	if got := parseLines(t, &buf)[0]["trace"]; got != "req-abc123" {
		t.Errorf("exported trace = %v", got)
	}
}

func TestNilSpanIsInert(t *testing.T) {
	ctx, span := Start(context.Background(), "no.tracer")
	if span != nil {
		t.Fatal("Start without tracer must return a nil span")
	}
	if SpanFrom(ctx) != nil || TracerFrom(ctx) != nil {
		t.Error("bare context must carry no span or tracer")
	}
	// Every method must be a safe no-op on nil.
	span.SetAttr(String("k", "v"))
	span.Event("e")
	span.End()
	if span.TraceID() != "" || span.ID() != 0 {
		t.Error("nil span identity should be zero")
	}
}

func TestEndIsIdempotent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	_, span := Start(WithTracer(context.Background(), tr), "once")
	span.End()
	span.End()
	span.SetAttr(String("late", "ignored"))
	span.Event("late.event")
	if n := len(parseLines(t, &buf)); n != 1 {
		t.Fatalf("want exactly 1 exported line, got %d", n)
	}
	st := tr.Stats()
	if st.Ended != 1 || st.Events != 0 {
		t.Errorf("stats after double End = %+v", st)
	}
}

// errWriter fails every write.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestWriteErrorsCounted(t *testing.T) {
	tr := NewTracer(errWriter{})
	_, span := Start(WithTracer(context.Background(), tr), "doomed")
	span.End()
	if st := tr.Stats(); st.WriteErrors != 1 {
		t.Errorf("WriteErrors = %d, want 1", st.WriteErrors)
	}
}

func TestDeterministicExport(t *testing.T) {
	run := func() string {
		var buf bytes.Buffer
		tr := NewTracer(&buf)
		tr.SetClock(stepClock(time.Millisecond))
		ctx := WithTracer(context.Background(), tr)
		ctx, root := Start(ctx, "a", Float("x", 1.5))
		_, child := Start(ctx, "b")
		child.Event("ev", Int("n", 3))
		child.End()
		root.End()
		return buf.String()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical runs exported different bytes:\n%s\nvs\n%s", a, b)
	}
}

func TestDetachKeepsObsValuesDropsCancellation(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	ctx := WithRequestID(WithTracer(context.Background(), tr), "req-detach")
	ctx, parent := Start(ctx, "http.request")
	ctx, cancel := context.WithCancel(ctx)
	det := Detach(ctx)
	cancel()
	if det.Err() != nil {
		t.Fatalf("detached context inherited cancellation: %v", det.Err())
	}
	if TracerFrom(det) != tr {
		t.Error("detached context lost the tracer")
	}
	if id, ok := RequestID(det); !ok || id != "req-detach" {
		t.Errorf("detached context request ID = %q, %v", id, ok)
	}
	if SpanFrom(det) == nil {
		t.Error("detached context lost the active span")
	}
	_, child := Start(det, "job.work")
	child.End()
	parent.End()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("exported %d spans, want 2", len(lines))
	}
	var rec struct {
		Trace  string `json:"trace"`
		Parent uint64 `json:"parent"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Trace != "req-detach" || rec.Parent == 0 {
		t.Errorf("detached child span trace=%q parent=%d; want the request trace and a non-root parent", rec.Trace, rec.Parent)
	}
}

// heldItem traces one fan-out item the way a suite kernel does: an item
// span over a run of leaf spans, each with an event.
func heldItem(ctx context.Context, i int) {
	ctx, item := Start(ctx, "item", Int("i", i))
	defer item.End()
	for j := 0; j < 3; j++ {
		func() {
			_, leaf := Start(ctx, "leaf", Int("j", j))
			defer leaf.End()
			leaf.Event("retry", Int("attempt", j))
		}()
	}
	item.SetAttr(Bool("done", true))
}

// shapes returns the exported lines without their wall-clock fields
// (start, dur_ms, offset_ms): what must not depend on scheduling.
func shapes(t *testing.T, buf *bytes.Buffer) []string {
	t.Helper()
	var out []string
	for _, rec := range parseLines(t, buf) {
		delete(rec, "start")
		delete(rec, "dur_ms")
		events, _ := rec["events"].([]any)
		for _, e := range events {
			delete(e.(map[string]any), "offset_ms")
		}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(line))
	}
	return out
}

// TestHeldReleaseOrder is the held-export contract: items traced
// concurrently under their own Holds, here forced to run in reverse
// order, and released in item order export exactly the lines of the
// same items traced one after another.
func TestHeldReleaseOrder(t *testing.T) {
	const items = 6
	run := func(held bool) []string {
		var buf bytes.Buffer
		tr := NewTracer(&buf)
		ctx, root := Start(WithTracer(context.Background(), tr), "suite")
		if held {
			holds := make([]*Held, items)
			done := make([]chan struct{}, items+1)
			for i := range done {
				done[i] = make(chan struct{})
			}
			close(done[items])
			var wg sync.WaitGroup
			for i := range holds {
				var hctx context.Context
				hctx, holds[i] = Hold(ctx)
				wg.Add(1)
				go func(i int, hctx context.Context) {
					defer wg.Done()
					<-done[i+1]
					heldItem(hctx, i)
					close(done[i])
				}(i, hctx)
			}
			wg.Wait()
			if st := tr.Stats(); st.Started != 1+4*items || st.Ended != 0 {
				t.Errorf("before Release: stats = %+v, want %d started and nothing exported", st, 1+4*items)
			}
			for _, h := range holds {
				h.Release()
			}
		} else {
			for i := 0; i < items; i++ {
				heldItem(ctx, i)
			}
		}
		root.End()
		if st := tr.Stats(); st.Started != st.Ended || st.Events != 3*items {
			t.Errorf("held=%v: stats = %+v, want Started == Ended", held, st)
		}
		return shapes(t, &buf)
	}
	serial, held := run(false), run(true)
	if got, want := strings.Join(held, "\n"), strings.Join(serial, "\n"); got != want {
		t.Errorf("held export differs from the serial trace:\n%s\nwant:\n%s", got, want)
	}
}

func TestHeldEdges(t *testing.T) {
	// Without a tracer there is nothing to hold: ctx comes back as is,
	// and Release on the nil Held does nothing.
	bare := context.Background()
	if ctx, h := Hold(bare); ctx != bare || h != nil {
		t.Errorf("Hold without tracer = (%v, %v), want (ctx, nil)", ctx, h)
	}
	var nilHeld *Held
	nilHeld.Release()

	var buf bytes.Buffer
	tr := NewTracer(&buf)
	ctx, h := Hold(WithRequestID(WithTracer(context.Background(), tr), "req-held"))
	_, early := Start(ctx, "early")
	early.End()
	_, late := Start(ctx, "late")
	if early.ID() != 0 || buf.Len() != 0 {
		t.Fatalf("held span numbered or exported before Release (id %d, %d bytes)", early.ID(), buf.Len())
	}
	h.Release()
	h.Release()
	if early.ID() != 1 || late.ID() != 2 || early.TraceID() != "req-held" {
		t.Errorf("after Release: ids %d, %d, trace %q; want 1, 2 in start order under the request trace",
			early.ID(), late.ID(), early.TraceID())
	}
	late.End() // ends after Release, so it exports as it ends
	_, after := Start(ctx, "after")
	after.End()
	var names []any
	for _, rec := range parseLines(t, &buf) {
		names = append(names, rec["name"], rec["span"])
	}
	if want := []any{"early", 1.0, "late", 2.0, "after", 3.0}; !reflect.DeepEqual(names, want) {
		t.Errorf("exported (name, span) = %v, want %v", names, want)
	}
	if st := tr.Stats(); st.Started != 3 || st.Ended != 3 {
		t.Errorf("stats = %+v, want 3 started and 3 ended", st)
	}
}

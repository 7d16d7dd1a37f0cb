package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one span or event attribute. Values should be strings, bools,
// ints, or float64s so the NDJSON export stays flat and greppable.
type Attr struct {
	Key   string
	Value any
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int) Attr { return Attr{Key: key, Value: value} }

// Float builds a float attribute.
func Float(key string, value float64) Attr { return Attr{Key: key, Value: value} }

// Bool builds a boolean attribute.
func Bool(key string, value bool) Attr { return Attr{Key: key, Value: value} }

// Event is one timed occurrence inside a span: a retry, a discarded
// repeat, a breaker trip.
type Event struct {
	Name   string
	Offset time.Duration // since the span started
	Attrs  []Attr
}

// TracerStats counts what a tracer has processed; the obs self-metrics
// on /metrics come from here.
type TracerStats struct {
	Started     int64
	Ended       int64
	Events      int64
	WriteErrors int64
}

// Tracer assigns span identities and exports every ended span as one
// NDJSON line on w. It is safe for concurrent use; lines are written
// whole under a mutex so concurrent spans never interleave bytes.
type Tracer struct {
	w   io.Writer
	now func() time.Time
	seq atomic.Uint64

	mu sync.Mutex // serializes writes to w

	started     atomic.Int64
	ended       atomic.Int64
	events      atomic.Int64
	writeErrors atomic.Int64
}

// NewTracer builds a tracer exporting NDJSON span records to w.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w, now: time.Now}
}

// Stats snapshots the tracer's self-counters.
func (t *Tracer) Stats() TracerStats {
	return TracerStats{
		Started:     t.started.Load(),
		Ended:       t.ended.Load(),
		Events:      t.events.Load(),
		WriteErrors: t.writeErrors.Load(),
	}
}

// Span is one traced operation. A nil *Span is valid and inert: every
// method is a no-op, so instrumented code never checks whether tracing
// is enabled.
type Span struct {
	tracer *Tracer
	name   string
	trace  string
	id     uint64
	parent uint64
	start  time.Time

	held *Held // non-nil while the span's identity and export wait on Release
	up   *Span // the parent span, kept until a held span is identified

	mu     sync.Mutex
	attrs  []Attr
	events []Event
	ended  bool
	end    time.Time
}

// context keys for the tracer, the active span, the request ID, and
// the held subtree.
type (
	tracerKey    struct{}
	spanKey      struct{}
	requestIDKey struct{}
	heldKey      struct{}
)

// WithTracer returns a context carrying the tracer; Start on that
// context (and its descendants) produces live spans.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom returns the context's tracer, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// SpanFrom returns the context's active span, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// WithRequestID returns a context carrying a request ID, which the log
// handler stamps onto every record and Start adopts as the trace ID of
// a new root span.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestID returns the context's request ID, if any.
func RequestID(ctx context.Context) (string, bool) {
	id, ok := ctx.Value(requestIDKey{}).(string)
	return id, ok && id != ""
}

// Detach returns a context that keeps ctx's observability values —
// tracer, request ID, active span — but is never canceled by ctx and
// carries no deadline. Hand it to work that must outlive the request
// that spawned it (an async job): spans started from the detached
// context still parent under the request's span tree and adopt its
// request ID as the trace, while the request's cancellation stops at
// the boundary.
func Detach(ctx context.Context) context.Context {
	return context.WithoutCancel(ctx)
}

// Start begins a span named name under the context's tracer and active
// span. It returns a derived context carrying the new span (so child
// operations nest under it) and the span itself. Without a tracer on
// the context it returns ctx unchanged and a nil span. Every Start must
// be paired with a deferred End in the same block:
//
//	ctx, span := obs.Start(ctx, "fit.platform")
//	defer span.End()
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	s := &Span{
		tracer: t,
		name:   name,
		start:  t.now(),
		attrs:  append([]Attr(nil), attrs...),
	}
	parent := SpanFrom(ctx)
	if parent == nil {
		s.trace, _ = RequestID(ctx)
	}
	if h, _ := ctx.Value(heldKey{}).(*Held); !h.start(s, parent) {
		s.identify(parent)
	}
	t.started.Add(1)
	return context.WithValue(ctx, spanKey{}, s), s
}

// identify takes the span's id off the tracer's sequence and its trace
// and parent from parent; a root without a request ID starts its own
// trace.
func (s *Span) identify(parent *Span) {
	s.id = s.tracer.seq.Add(1)
	switch {
	case parent != nil:
		s.trace, s.parent = parent.trace, parent.id
	case s.trace == "":
		s.trace = fmt.Sprintf("t%06x", s.id)
	}
}

// Held defers the identity and export of a subtree of spans so that
// concurrent subtrees trace exactly as if they had run one after
// another. Spans started under a held context take no id until
// Release; Release then numbers them in start order and exports them in
// end order. Work that fans out (the microbenchmark suite measures its
// kernels on a pool) holds each item's subtree and releases the items
// in item order, so span ids, parents and line order stay independent
// of scheduling.
type Held struct {
	mu       sync.Mutex
	started  []*Span // in Start order
	ended    []*Span // in End order
	released bool
}

// Hold returns a context under which started spans are held until the
// returned Held is released. Without a tracer on ctx it returns ctx and
// a nil Held whose Release does nothing. Call Release once the
// subtree's work has returned, on error paths too: a span still held is
// never exported. Until then a held span's ID and TraceID read as zero,
// so Holds do not nest: a span held by an inner Held would take its
// parent's id before the outer Release had assigned it.
func Hold(ctx context.Context) (context.Context, *Held) {
	if TracerFrom(ctx) == nil {
		return ctx, nil
	}
	h := &Held{}
	return context.WithValue(ctx, heldKey{}, h), h
}

// start queues a starting span for identification at Release; false
// means h is nil or already released, and the span is identified now.
func (h *Held) start(s, parent *Span) bool {
	if h == nil {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.released {
		return false
	}
	s.held, s.up = h, parent
	h.started = append(h.started, s)
	return true
}

// end queues an ended span for export at Release; false means h is
// already released and the span exports now.
func (h *Held) end(s *Span) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.released {
		return false
	}
	h.ended = append(h.ended, s)
	return true
}

// Release numbers the held spans in start order and exports the ended
// ones in end order; spans that end later export as they end.
// Idempotent; no-op on a nil Held.
func (h *Held) Release() {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.released {
		h.mu.Unlock()
		return
	}
	h.released = true
	for _, s := range h.started {
		s.identify(s.up)
		s.up = nil
	}
	ended := h.ended
	h.started, h.ended = nil, nil
	h.mu.Unlock()
	for _, s := range ended {
		s.tracer.finish(s)
	}
}

// TraceID returns the span's trace identifier ("" on a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.trace
}

// ID returns the span's identifier (0 on a nil span).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// SetAttr appends attributes to the span. No-op on nil or ended spans.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// Event records a timed occurrence inside the span. No-op on nil or
// ended spans.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	off := s.tracer.now().Sub(s.start)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.events = append(s.events, Event{Name: name, Offset: off, Attrs: append([]Attr(nil), attrs...)})
	s.tracer.events.Add(1)
}

// End finishes the span and exports it as one NDJSON line, or queues
// it for its Held's Release. Idempotent; no-op on nil spans. Always
// defer it right after Start.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.tracer.now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.end = end
	s.mu.Unlock()
	if s.held != nil && s.held.end(s) {
		return
	}
	s.tracer.finish(s)
}

// spanRecord is the NDJSON wire form of one ended span. Struct fields
// give a fixed key order; attr maps are key-sorted by encoding/json, so
// identical spans marshal to identical bytes.
type spanRecord struct {
	Trace  string         `json:"trace"`
	Span   uint64         `json:"span"`
	Parent uint64         `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  string         `json:"start"`
	DurMS  float64        `json:"dur_ms"`
	Attrs  map[string]any `json:"attrs,omitempty"`
	Events []eventRecord  `json:"events,omitempty"`
}

// eventRecord is the wire form of one span event.
type eventRecord struct {
	Name     string         `json:"name"`
	OffsetMS float64        `json:"offset_ms"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

// record builds the export record of an ended span, whose attrs and
// events no longer change.
func (s *Span) record() spanRecord {
	rec := spanRecord{
		Trace:  s.trace,
		Span:   s.id,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start.UTC().Format(time.RFC3339Nano),
		DurMS:  float64(s.end.Sub(s.start)) / float64(time.Millisecond),
		Attrs:  attrMap(s.attrs),
	}
	for _, e := range s.events {
		rec.Events = append(rec.Events, eventRecord{
			Name:     e.Name,
			OffsetMS: float64(e.Offset) / float64(time.Millisecond),
			Attrs:    attrMap(e.Attrs),
		})
	}
	return rec
}

// attrMap folds attrs into a map (later keys win); nil when empty so
// the JSON omits the field.
func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

// finish counts an ended span and exports it.
func (t *Tracer) finish(s *Span) {
	t.ended.Add(1)
	t.export(s.record())
}

// export marshals and writes one span line.
func (t *Tracer) export(rec spanRecord) {
	line, err := json.Marshal(rec)
	if err != nil {
		t.writeErrors.Add(1)
		return
	}
	line = append(line, '\n')
	t.mu.Lock()
	_, werr := t.w.Write(line)
	t.mu.Unlock()
	if werr != nil {
		t.writeErrors.Add(1)
	}
}

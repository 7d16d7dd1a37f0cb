package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"testing"
)

func TestLoggerInjectsCorrelation(t *testing.T) {
	var logBuf, traceBuf bytes.Buffer
	logger, count := NewCountedLogger(&logBuf)
	tr := NewTracer(&traceBuf)
	ctx := WithRequestID(WithTracer(context.Background(), tr), "req-42")
	ctx, span := Start(ctx, "op")
	defer span.End()

	logger.LogAttrs(ctx, slog.LevelInfo, "hello", slog.String("k", "v"))

	var rec map[string]any
	if err := json.Unmarshal(logBuf.Bytes(), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v (%q)", err, logBuf.String())
	}
	if rec["msg"] != "hello" || rec["k"] != "v" {
		t.Errorf("record = %v", rec)
	}
	if rec["request_id"] != "req-42" {
		t.Errorf("request_id = %v, want req-42", rec["request_id"])
	}
	if rec["trace"] != span.TraceID() || rec["span"] != float64(span.ID()) {
		t.Errorf("trace/span correlation missing: %v", rec)
	}
	if n := count(); n != 1 {
		t.Errorf("record count = %d, want 1", n)
	}
}

func TestLoggerWithoutContextValues(t *testing.T) {
	var buf bytes.Buffer
	logger, _ := NewCountedLogger(&buf)
	logger.LogAttrs(context.Background(), slog.LevelWarn, "plain")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if _, has := rec["request_id"]; has {
		t.Error("bare context must not inject request_id")
	}
	if _, has := rec["trace"]; has {
		t.Error("bare context must not inject trace")
	}
}

func TestNopLoggerDiscards(t *testing.T) {
	// Must not panic, even with a nil-ish context chain.
	NopLogger().LogAttrs(context.Background(), slog.LevelError, "into the void")
}

package microbench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"archline/internal/faults"
	"archline/internal/machine"
	"archline/internal/obs"
	"archline/internal/powermon"
	"archline/internal/sim"
)

func robustOpts(inj *faults.Injector) sim.Options {
	return sim.Options{Seed: 42, Faults: inj, Sanitize: true}
}

// sleepRecorder fails the test if any retry tries to sleep for real.
func sleepRecorder(t *testing.T) (func(time.Duration), *int) {
	t.Helper()
	n := 0
	return func(d time.Duration) {
		n++
		if d > time.Second {
			t.Errorf("retry slept %v, beyond the cap", d)
		}
	}, &n
}

func TestRunRobustCleanMatchesSuite(t *testing.T) {
	plat := machine.MustByID(machine.GTXTitan)
	cfg := DefaultConfig()
	sleep, slept := sleepRecorder(t)
	res, rs, err := RunRobust(plat, cfg, robustOpts(nil), RobustConfig{Sleep: sleep})
	if err != nil {
		t.Fatal(err)
	}
	kernels, err := BuildSuite(plat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Measurements) != len(kernels) {
		t.Errorf("measurements = %d, want %d", len(res.Measurements), len(kernels))
	}
	for i, m := range res.Measurements {
		if m.Kernel != kernels[i].Name {
			t.Errorf("measurement %d kernel = %q, want %q (repeat suffix must be stripped)",
				i, m.Kernel, kernels[i].Name)
		}
	}
	if rs.Retries != 0 || rs.Discarded != 0 {
		t.Errorf("clean run retried/discarded: %v", rs)
	}
	if rs.WorstGrade != powermon.GradeA {
		t.Errorf("clean worst grade = %v, want A", rs.WorstGrade)
	}
	if *slept != 0 {
		t.Errorf("clean run slept %d times", *slept)
	}
	if res.IdlePower <= 0 {
		t.Errorf("idle power = %v", res.IdlePower)
	}
}

func TestRunRobustSurvivesPaperFaults(t *testing.T) {
	plat := machine.MustByID(machine.GTXTitan)
	cfg := DefaultConfig()
	sleep, _ := sleepRecorder(t)
	inj := faults.New(faults.Paper(), 7)
	res, rs, err := RunRobust(plat, cfg, robustOpts(inj), RobustConfig{Sleep: sleep})
	if err != nil {
		t.Fatalf("robust run did not survive the paper profile: %v", err)
	}
	if got, want := len(res.Measurements), 2*cfg.SweepPoints+1; got < want {
		t.Errorf("measurements = %d, want at least %d", got, want)
	}
	// With ~190 labels at 2% disconnect probability some retries are
	// overwhelmingly likely; the suite must have absorbed them silently.
	if rs.Retries == 0 {
		t.Log("note: no transient retries occurred under the paper profile (possible but unlikely)")
	}
	if rs.WorstGrade > powermon.GradeC {
		t.Errorf("worst grade = %v", rs.WorstGrade)
	}
}

func TestRunRobustDeterministic(t *testing.T) {
	plat := machine.MustByID(machine.GTXTitan)
	cfg := DefaultConfig()
	cfg.SweepPoints = 6
	cfg.IncludeDouble = false
	cfg.IncludeCache = false
	cfg.IncludeChase = false
	run := func() (*Result, *RobustStats) {
		sleep, _ := sleepRecorder(t)
		res, rs, err := RunRobust(plat, cfg, robustOpts(faults.New(faults.Paper(), 7)),
			RobustConfig{Sleep: sleep})
		if err != nil {
			t.Fatal(err)
		}
		return res, rs
	}
	a, ra := run()
	b, rb := run()
	if *ra != *rb {
		t.Errorf("robust stats diverged: %v vs %v", ra, rb)
	}
	for i := range a.Measurements {
		if a.Measurements[i] != b.Measurements[i] {
			t.Errorf("measurement %d diverged:\n%+v\n%+v", i, a.Measurements[i], b.Measurements[i])
		}
	}
	if a.IdlePower != b.IdlePower {
		t.Errorf("idle power diverged: %v vs %v", a.IdlePower, b.IdlePower)
	}
}

func TestRunRobustAllRepeatsFailing(t *testing.T) {
	// A label that disconnects more often than the retry budget admits
	// must surface a hard error, not a silent hole in the suite.
	prof := faults.Paper()
	prof.DisconnectProb = 1
	prof.DisconnectBurst = 1000
	plat := machine.MustByID(machine.GTXTitan)
	cfg := DefaultConfig()
	cfg.SweepPoints = 2
	cfg.IncludeDouble = false
	cfg.IncludeCache = false
	cfg.IncludeChase = false
	sleep, _ := sleepRecorder(t)
	_, _, err := RunRobust(plat, cfg, robustOpts(faults.New(prof, 7)), RobustConfig{Sleep: sleep})
	if err == nil {
		t.Fatal("permanently disconnected meter should fail the run")
	}
	if !powermon.IsTransient(err) {
		t.Errorf("exhausted-retry error should stay classifiable: %v", err)
	}
}

func TestRunRobustContextCancellation(t *testing.T) {
	// A canceled context must abort the suite promptly with a
	// context.Canceled-classifiable error, not run every kernel.
	plat := machine.MustByID(machine.GTXTitan)
	cfg := DefaultConfig()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sleep, _ := sleepRecorder(t)
	res, _, err := RunRobustContext(ctx, plat, cfg, robustOpts(nil), RobustConfig{Sleep: sleep})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("canceled run still returned a result with %d measurements", len(res.Measurements))
	}
}

// traceShape returns a trace's span lines without their wall-clock
// fields (start, dur_ms, offset_ms): ids, parents, names, attrs, events
// and line order are what must not depend on scheduling.
func traceShape(t *testing.T, buf *bytes.Buffer) string {
	t.Helper()
	var lines []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		delete(rec, "start")
		delete(rec, "dur_ms")
		events, _ := rec["events"].([]any)
		for _, e := range events {
			delete(e.(map[string]any), "offset_ms")
		}
		shape, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(shape))
	}
	return strings.Join(lines, "\n")
}

// TestRunRobustDeterministicAcrossWorkers is the scheduling-independence
// contract of the robust suite's kernel pool under the paper fault
// profile: at every worker count the Result, the RobustStats, the
// traced span tree and the number of backoff waits equal the one-worker
// run's. The Sleep stub counts into a plain int, which -race accepts
// only because the runner serializes caller-supplied Sleep calls.
func TestRunRobustDeterministicAcrossWorkers(t *testing.T) {
	plat := machine.MustByID(machine.GTXTitan)
	type outcome struct {
		result []byte
		stats  RobustStats
		trace  string
		slept  int
	}
	run := func(workers int) outcome {
		cfg := DefaultConfig()
		cfg.SweepPoints = 10
		cfg.Workers = workers
		var buf bytes.Buffer
		tr := obs.NewTracer(&buf)
		var o outcome
		res, rs, err := RunRobustContext(obs.WithTracer(context.Background(), tr), plat, cfg,
			robustOpts(faults.New(faults.Paper(), 7)),
			RobustConfig{Sleep: func(time.Duration) { o.slept++ }})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st := tr.Stats(); st.Started != st.Ended {
			t.Errorf("workers=%d: %d spans started, %d exported", workers, st.Started, st.Ended)
		}
		o.result, o.stats, o.trace = marshalResult(t, res), *rs, traceShape(t, &buf)
		return o
	}
	want := run(1)
	if want.stats.Retries == 0 || want.slept != want.stats.Retries {
		t.Fatalf("reference run: %d retries, %d waits; want some retries, one wait each", want.stats.Retries, want.slept)
	}
	for _, workers := range []int{2, 8, 0} {
		got := run(workers)
		if string(got.result) != string(want.result) {
			t.Errorf("workers=%d: Result differs from workers=1", workers)
		}
		if got.stats != want.stats || got.slept != want.slept {
			t.Errorf("workers=%d: stats %v with %d waits, want %v with %d", workers, got.stats, got.slept, want.stats, want.slept)
		}
		if got.trace != want.trace {
			t.Errorf("workers=%d: span tree differs from workers=1", workers)
		}
	}
}

// TestRunRobustSerializesSleep pins the Sleep contract: when the first
// meter read of every repeat disconnects, all the pooled kernels retry
// at once, yet a caller-supplied Sleep is never entered concurrently.
func TestRunRobustSerializesSleep(t *testing.T) {
	prof := faults.Paper()
	prof.DisconnectProb = 1
	prof.DisconnectBurst = 1
	plat := machine.MustByID(machine.GTXTitan)
	cfg := DefaultConfig()
	cfg.SweepPoints = 16
	cfg.IncludeDouble = false
	cfg.IncludeCache = false
	cfg.IncludeChase = false
	cfg.Workers = 4
	var inside atomic.Int32
	n := 0
	sleep := func(time.Duration) {
		if inside.Add(1) > 1 {
			t.Error("Sleep entered while another call was still running")
		}
		n++
		time.Sleep(100 * time.Microsecond)
		inside.Add(-1)
	}
	_, rs, err := RunRobust(plat, cfg, robustOpts(faults.New(prof, 7)), RobustConfig{Sleep: sleep})
	if err != nil {
		t.Fatal(err)
	}
	// One retry per kernel repeat, plus one for the idle repeats, which
	// share a single fault label and so a single disconnect episode.
	if want := cfg.SweepPoints*rs.Repeats + 1; rs.Retries != want || n != want {
		t.Errorf("%d retries and %d waits, want %d", rs.Retries, n, want)
	}
}

// TestRunRobustCancelMidSuite cancels the suite from inside its first
// retry wait while the kernels run on a pool: the run must fail as
// context.Canceled with no Result, skip the repeats still queued, and
// still export every span it started.
func TestRunRobustCancelMidSuite(t *testing.T) {
	plat := machine.MustByID(machine.GTXTitan)
	cfg := DefaultConfig()
	cfg.Workers = 2
	kernels, err := BuildSuite(plat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	slept := 0
	res, _, err := RunRobustContext(obs.WithTracer(ctx, tr), plat, cfg, robustOpts(faults.New(faults.Paper(), 7)),
		RobustConfig{Sleep: func(time.Duration) { slept++; cancel() }})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("canceled run still returned a result with %d measurements", len(res.Measurements))
	}
	if slept == 0 {
		t.Fatal("no retry wait happened, so the suite was never canceled mid-run")
	}
	if st := tr.Stats(); st.Started != st.Ended {
		t.Errorf("%d spans started, %d exported: a held subtree was not released", st.Started, st.Ended)
	}
	if n, all := strings.Count(buf.String(), `"name":"sim.measure"`), len(kernels)*3; n >= all {
		t.Errorf("%d of %d repeats were measured after the cancel", n, all)
	}
}

// BenchmarkRunRobust times the measurement stage of a fit job on one
// platform: the paper-profile robust suite, sanitized, on one worker,
// with each retry's backoff on the simulated clock.
func BenchmarkRunRobust(b *testing.B) {
	plat := machine.MustByID(machine.GTXTitan)
	cfg := DefaultConfig()
	cfg.Workers = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A fresh injector per iteration: it carries each label's
		// disconnect countdown from one recording to the next.
		opts := robustOpts(faults.New(faults.Paper(), 7))
		if _, _, err := RunRobust(plat, cfg, opts, RobustConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

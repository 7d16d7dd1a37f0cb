package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, e *Engine, id string, want State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		snap, ok := e.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared while waiting for %v", id, want)
		}
		if snap.State == want {
			return snap
		}
		if snap.State.Terminal() && !want.Terminal() {
			t.Fatalf("job %s reached terminal %v while waiting for %v (err=%v)", id, snap.State, want, snap.Err)
		}
		time.Sleep(time.Millisecond)
	}
	snap, _ := e.Get(id)
	t.Fatalf("job %s stuck in %v, want %v", id, snap.State, want)
	return Snapshot{}
}

func TestStateStringsAndTerminal(t *testing.T) {
	want := map[State]string{
		Queued: "queued", Running: "running", Done: "done",
		Failed: "failed", Canceled: "canceled",
	}
	if len(States) != len(want) {
		t.Fatalf("States has %d entries, want %d", len(States), len(want))
	}
	for _, s := range States {
		if s.String() != want[s] {
			t.Errorf("State(%d).String() = %q, want %q", int(s), s.String(), want[s])
		}
		wantTerminal := s == Done || s == Failed || s == Canceled
		if s.Terminal() != wantTerminal {
			t.Errorf("State %v Terminal() = %v, want %v", s, s.Terminal(), wantTerminal)
		}
	}
	if got := State(99).String(); got != "state(99)" {
		t.Errorf("unknown state renders %q", got)
	}
}

func TestJobRunsToDone(t *testing.T) {
	e := New(Config{})
	defer e.Close(context.Background())
	id, err := e.Submit(context.Background(), "ok", func(ctx context.Context, p *Progress) (any, error) {
		p.Emit("halfway", map[string]any{"pct": 50})
		return 42, nil
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	snap := waitState(t, e, id, Done)
	if snap.Result != 42 {
		t.Errorf("Result = %v, want 42", snap.Result)
	}
	if snap.Err != nil {
		t.Errorf("Err = %v, want nil", snap.Err)
	}
	if snap.Name != "ok" {
		t.Errorf("Name = %q", snap.Name)
	}
	if snap.Created.IsZero() || snap.Started.IsZero() || snap.Ended.IsZero() {
		t.Errorf("timestamps not all set: %+v", snap)
	}
	// queued, running, halfway, state = 4 events.
	if snap.Events != 4 {
		t.Errorf("Events = %d, want 4", snap.Events)
	}
}

func TestJobFailure(t *testing.T) {
	e := New(Config{})
	defer e.Close(context.Background())
	boom := errors.New("boom")
	id, err := e.Submit(context.Background(), "fail", func(ctx context.Context, p *Progress) (any, error) {
		return nil, boom
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	snap := waitState(t, e, id, Failed)
	if !errors.Is(snap.Err, boom) {
		t.Errorf("Err = %v, want %v", snap.Err, boom)
	}
	st := e.Stats()
	if st.Failed != 1 {
		t.Errorf("Stats.Failed = %d, want 1", st.Failed)
	}
}

func TestCancelRunningJob(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close(context.Background())
	started := make(chan struct{})
	id, err := e.Submit(context.Background(), "block", func(ctx context.Context, p *Progress) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	if _, ok := e.Cancel(id); !ok {
		t.Fatal("Cancel: job not found")
	}
	snap := waitState(t, e, id, Canceled)
	if !errors.Is(snap.Err, context.Canceled) {
		t.Errorf("Err = %v, want context.Canceled", snap.Err)
	}
}

func TestCancelQueuedJobIsImmediate(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close(context.Background())
	release := make(chan struct{})
	started := make(chan struct{})
	blocker, err := e.Submit(context.Background(), "blocker", func(ctx context.Context, p *Progress) (any, error) {
		close(started)
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	<-started
	queued, err := e.Submit(context.Background(), "queued", func(ctx context.Context, p *Progress) (any, error) {
		t.Error("queued job ran despite cancellation")
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}
	snap, ok := e.Cancel(queued)
	if !ok {
		t.Fatal("Cancel: job not found")
	}
	// Queued jobs finish synchronously inside Cancel.
	if snap.State != Canceled {
		t.Errorf("post-cancel state = %v, want Canceled", snap.State)
	}
	close(release)
	waitState(t, e, blocker, Done)
}

func TestCancelTerminalJobIsNoop(t *testing.T) {
	e := New(Config{})
	defer e.Close(context.Background())
	id, _ := e.Submit(context.Background(), "ok", func(ctx context.Context, p *Progress) (any, error) {
		return "kept", nil
	})
	waitState(t, e, id, Done)
	snap, ok := e.Cancel(id)
	if !ok || snap.State != Done || snap.Result != "kept" {
		t.Errorf("Cancel on terminal job: ok=%v snap=%+v", ok, snap)
	}
}

func TestCancelUnknownJob(t *testing.T) {
	e := New(Config{})
	defer e.Close(context.Background())
	if _, ok := e.Cancel("job-nope"); ok {
		t.Error("Cancel returned ok for unknown job")
	}
	if _, ok := e.Get("job-nope"); ok {
		t.Error("Get returned ok for unknown job")
	}
}

func TestQueueFullSheds(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 1})
	defer e.Close(context.Background())
	release := make(chan struct{})
	// One slot, so the running job's signal is kept even when its
	// goroutine reaches the send before the test reaches <-started;
	// unbuffered, the send would drop and the receive block forever.
	started := make(chan struct{}, 1)
	block := func(ctx context.Context, p *Progress) (any, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// Worker slot + one queue slot fill; the third submit must shed.
	if _, err := e.Submit(context.Background(), "run", block); err != nil {
		t.Fatalf("Submit 1: %v", err)
	}
	<-started
	if _, err := e.Submit(context.Background(), "wait", block); err != nil {
		t.Fatalf("Submit 2: %v", err)
	}
	if _, err := e.Submit(context.Background(), "shed", block); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit 3 err = %v, want ErrQueueFull", err)
	}
	st := e.Stats()
	if st.Shed != 1 {
		t.Errorf("Stats.Shed = %d, want 1", st.Shed)
	}
	if st.Submitted != 2 {
		t.Errorf("Stats.Submitted = %d, want 2", st.Submitted)
	}
	close(release)
}

func TestSubmitAfterCloseRefused(t *testing.T) {
	e := New(Config{})
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, err := e.Submit(context.Background(), "late", func(ctx context.Context, p *Progress) (any, error) {
		return nil, nil
	})
	if !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close err = %v, want ErrClosed", err)
	}
}

func TestCloseCancelsQueuedAndWaitsForRunning(t *testing.T) {
	e := New(Config{Workers: 1})
	release := make(chan struct{})
	started := make(chan struct{})
	running, err := e.Submit(context.Background(), "running", func(ctx context.Context, p *Progress) (any, error) {
		close(started)
		<-release
		return "finished", nil
	})
	if err != nil {
		t.Fatalf("Submit running: %v", err)
	}
	<-started
	queued, err := e.Submit(context.Background(), "queued", func(ctx context.Context, p *Progress) (any, error) {
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}
	closed := make(chan error, 1)
	go func() { closed <- e.Close(context.Background()) }()
	// The queued job must land Canceled without ever running.
	waitState(t, e, queued, Canceled)
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	snap, ok := e.Get(running)
	if !ok || snap.State != Done || snap.Result != "finished" {
		t.Errorf("running job after drain: ok=%v snap=%+v", ok, snap)
	}
}

func TestCloseDeadlineCancelsRunning(t *testing.T) {
	e := New(Config{Workers: 1})
	started := make(chan struct{})
	id, err := e.Submit(context.Background(), "slow", func(ctx context.Context, p *Progress) (any, error) {
		close(started)
		<-ctx.Done() // only stops when drain cancels it
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	snap, ok := e.Get(id)
	if !ok || snap.State != Canceled {
		t.Errorf("job after deadline drain: ok=%v state=%v", ok, snap.State)
	}
}

func TestTTLEviction(t *testing.T) {
	now := time.Unix(1700000000, 0)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	e := New(Config{TTL: time.Minute, Clock: clock})
	defer e.Close(context.Background())
	id, _ := e.Submit(context.Background(), "short-lived", func(ctx context.Context, p *Progress) (any, error) {
		return nil, nil
	})
	waitState(t, e, id, Done)
	if _, ok := e.Get(id); !ok {
		t.Fatal("job missing before TTL")
	}
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	if _, ok := e.Get(id); ok {
		t.Error("terminal job still present after TTL")
	}
}

func TestSubscribeReplayAndLive(t *testing.T) {
	e := New(Config{})
	defer e.Close(context.Background())
	entered := make(chan struct{})
	release := make(chan struct{})
	id, err := e.Submit(context.Background(), "narrated", func(ctx context.Context, p *Progress) (any, error) {
		p.Emit("phase", map[string]any{"n": 1})
		close(entered)
		<-release
		p.Emit("phase", map[string]any{"n": 2})
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-entered
	replay, live, cancel, ok := e.Subscribe(id)
	if !ok {
		t.Fatal("Subscribe: job not found")
	}
	defer cancel()
	// queued, running, phase(1) have already happened.
	if len(replay) != 3 {
		t.Fatalf("replay has %d events: %+v", len(replay), replay)
	}
	if replay[0].Name != "queued" || replay[1].Name != "running" || replay[2].Name != "phase" {
		t.Errorf("replay names: %q %q %q", replay[0].Name, replay[1].Name, replay[2].Name)
	}
	close(release)
	var names []string
	for ev := range live { // closes at terminal state
		names = append(names, ev.Name)
	}
	if len(names) != 2 || names[0] != "phase" || names[1] != "state" {
		t.Errorf("live events = %v, want [phase state]", names)
	}
	// Seq keeps counting across replay + live.
	replay2, live2, cancel2, _ := e.Subscribe(id)
	defer cancel2()
	if len(replay2) != 5 || replay2[4].Seq != 5 {
		t.Errorf("terminal replay = %+v", replay2)
	}
	if _, open := <-live2; open {
		t.Error("live channel for terminal job not closed")
	}
}

func TestSubscribeUnknownJob(t *testing.T) {
	e := New(Config{})
	defer e.Close(context.Background())
	if _, _, _, ok := e.Subscribe("job-nope"); ok {
		t.Error("Subscribe returned ok for unknown job")
	}
}

func TestEventHistoryTruncates(t *testing.T) {
	p := newProgress()
	for i := 0; i < maxEvents+10; i++ {
		p.emit("tick", nil)
	}
	replay, live, cancel := p.subscribe()
	defer cancel()
	_ = live
	if len(replay) != maxEvents+1 {
		t.Fatalf("retained %d events, want %d", len(replay), maxEvents+1)
	}
	if replay[maxEvents].Name != "events.truncated" {
		t.Errorf("last retained event = %q, want events.truncated", replay[maxEvents].Name)
	}
	if p.count() != maxEvents+10 {
		t.Errorf("count = %d, want %d", p.count(), maxEvents+10)
	}
}

func TestSlowSubscriberDropsNotBlocks(t *testing.T) {
	p := newProgress()
	_, live, cancel := p.subscribe()
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < subBuffer*4; i++ { // never read from live
			p.emit("flood", nil)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("emit blocked on a slow subscriber")
	}
	if n := len(live); n != subBuffer {
		t.Errorf("subscriber buffered %d events, want %d (rest dropped)", n, subBuffer)
	}
}

func TestSubscriberCancelIsIdempotent(t *testing.T) {
	p := newProgress()
	_, _, cancel := p.subscribe()
	cancel()
	cancel() // second call must not close a closed channel
	p.emit("after", nil)
	p.close()
	p.close()
}

func TestStatsGauges(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close(context.Background())
	release := make(chan struct{})
	started := make(chan struct{})
	e.Submit(context.Background(), "a", func(ctx context.Context, p *Progress) (any, error) {
		close(started)
		<-release
		return nil, nil
	})
	<-started
	e.Submit(context.Background(), "b", func(ctx context.Context, p *Progress) (any, error) {
		return nil, nil
	})
	st := e.Stats()
	if st.Running != 1 || st.Queued != 1 {
		t.Errorf("Stats = %+v, want Running=1 Queued=1", st)
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st = e.Stats()
		if st.Done == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if st.Running != 0 || st.Queued != 0 || st.Done != 2 {
		t.Errorf("final Stats = %+v, want all drained with Done=2", st)
	}
}

func TestConcurrentSubmitPollCancel(t *testing.T) {
	e := New(Config{Workers: 4, QueueDepth: 256})
	defer e.Close(context.Background())
	const n = 64
	var wg sync.WaitGroup
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := e.Submit(context.Background(), fmt.Sprintf("j%d", i), func(ctx context.Context, p *Progress) (any, error) {
				p.Emit("work", map[string]any{"i": i})
				if i%7 == 0 {
					return nil, errors.New("unlucky")
				}
				return i, nil
			})
			if err != nil {
				t.Errorf("Submit %d: %v", i, err)
				return
			}
			ids[i] = id
			if i%5 == 0 {
				e.Cancel(id) // may or may not land before completion
			}
			e.Get(id)
			e.Stats()
		}(i)
	}
	wg.Wait()
	for i, id := range ids {
		if id == "" {
			continue
		}
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			snap, ok := e.Get(id)
			if !ok {
				t.Fatalf("job %d evicted mid-test", i)
			}
			if snap.State.Terminal() {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	st := e.Stats()
	if st.Done+st.Failed+st.Canceled != n {
		t.Errorf("terminal counts %d+%d+%d != %d", st.Done, st.Failed, st.Canceled, n)
	}
}

// TestTerminalSnapshotCountsFinalEvent: a snapshot that reports a
// terminal state already counts the final state event. Two pollers
// race Get against many jobs finishing at once; each job emits queued,
// running and state, so every terminal snapshot must read Events = 3.
func TestTerminalSnapshotCountsFinalEvent(t *testing.T) {
	const n = 256
	e := New(Config{Workers: 4, QueueDepth: n})
	defer e.Close(context.Background())
	release := make(chan struct{})
	ids := make([]string, n)
	for i := range ids {
		id, err := e.Submit(context.Background(), "quick", func(ctx context.Context, p *Progress) (any, error) {
			<-release
			return nil, nil
		})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids[i] = id
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pending := append([]string(nil), ids...)
			deadline := time.Now().Add(10 * time.Second)
			for len(pending) > 0 && time.Now().Before(deadline) {
				kept := pending[:0]
				for _, id := range pending {
					snap, _ := e.Get(id)
					if !snap.State.Terminal() {
						kept = append(kept, id)
					} else if snap.Events != 3 {
						t.Errorf("job %s: %v snapshot counts %d events, want 3", id, snap.State, snap.Events)
					}
				}
				pending = kept
			}
			if len(pending) > 0 {
				t.Errorf("%d jobs not terminal after 10 s", len(pending))
			}
		}()
	}
	close(release)
	wg.Wait()
}

package agg

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

// sinkRec captures sink emissions as "label,label=value" strings so
// tests can assert on them order-independently.
type sinkRec struct {
	mu    sync.Mutex
	lines []string
}

func (r *sinkRec) noteValue(labels []string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := ""
	for i, l := range labels {
		if i > 0 {
			key += ","
		}
		key += l
	}
	r.lines = append(r.lines, fmt.Sprintf("%s=%g", key, v))
}

func (r *sinkRec) sorted() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]string(nil), r.lines...)
	sort.Strings(out)
	return out
}

func (r *sinkRec) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lines = nil
}

func eq(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestCounterFlushDeltas checks counters sum deltas between flushes,
// emit once per nonzero series, and reset: a second flush with no new
// recordings emits nothing.
func TestCounterFlushDeltas(t *testing.T) {
	a := New(Config{})
	var rec sinkRec
	c := a.Counter("reqs", 2, rec.noteValue, Opts{})
	c.Add2("/v1/query", "200", 1)
	c.Add2("/v1/query", "200", 1)
	c.Add2("/v1/query", "400", 1)
	c.Add2("/healthz", "200", 5)

	a.Flush()
	eq(t, rec.sorted(), []string{"/healthz,200=5", "/v1/query,200=2", "/v1/query,400=1"})

	rec.reset()
	a.Flush()
	if got := rec.sorted(); len(got) != 0 {
		t.Fatalf("second flush emitted %v, want nothing", got)
	}

	// New recordings after a flush start from zero again.
	c.Add2("/v1/query", "200", 3)
	a.Flush()
	eq(t, rec.sorted(), []string{"/v1/query,200=3"})
}

// TestSetDistinct checks sets count distinct members per interval and
// clear at flush.
func TestSetDistinct(t *testing.T) {
	a := New(Config{})
	var rec sinkRec
	s := a.Set("platforms", 0, rec.noteValue, Opts{})
	s.Insert("gtx-titan")
	s.Insert("gtx-titan")
	s.Insert("i7-3615qm")
	a.Flush()
	eq(t, rec.sorted(), []string{"=2"})

	rec.reset()
	a.Flush()
	if got := rec.sorted(); len(got) != 0 {
		t.Fatalf("cleared set emitted %v, want nothing", got)
	}
	s.Insert("arm1176")
	a.Flush()
	eq(t, rec.sorted(), []string{"=1"})
}

// TestTimerFlushAndReset checks timers hand their buffered samples to
// the sink and reset, and that two flushes of one recording emit once.
func TestTimerFlushAndReset(t *testing.T) {
	a := New(Config{})
	var (
		mu      sync.Mutex
		flushed = map[string][]float64{}
	)
	tm := a.Timer("lat", 1, func(labels []string, samples []float64) {
		mu.Lock()
		defer mu.Unlock()
		flushed[labels[0]] = append(flushed[labels[0]], samples...)
	}, Opts{})
	tm.Observe1("/v1/query", 0.25)
	tm.Observe1("/v1/query", 0.5)
	tm.Observe1("/healthz", 0.001)
	a.Flush()
	a.Flush()

	if got := flushed["/v1/query"]; len(got) != 2 || got[0] != 0.25 || got[1] != 0.5 {
		t.Fatalf("/v1/query samples = %v, want [0.25 0.5] in recording order", got)
	}
	if got := flushed["/healthz"]; len(got) != 1 || got[0] != 0.001 {
		t.Fatalf("/healthz samples = %v", got)
	}
}

// TestCardinalityCapSpills checks a family refuses new label tuples
// past its cap, counts every refusal, and keeps serving the interned
// tuples.
func TestCardinalityCapSpills(t *testing.T) {
	a := New(Config{})
	var rec sinkRec
	c := a.Counter("by_user", 1, rec.noteValue, Opts{MaxSeries: 4})
	for i := 0; i < 4; i++ {
		c.Add1(fmt.Sprintf("user-%d", i), 1)
	}
	// Past the cap: dropped, not stored.
	c.Add1("user-4", 1)
	c.Add1("user-5", 1)
	c.Add1("user-5", 1)
	// An interned tuple still records.
	c.Add1("user-0", 1)

	a.Flush()
	eq(t, rec.sorted(), []string{"user-0=2", "user-1=1", "user-2=1", "user-3=1"})

	st := a.Stats()
	if len(st) != 1 || st[0].Name != "by_user" {
		t.Fatalf("stats = %+v", st)
	}
	if st[0].Series != 4 || st[0].DroppedSeries != 3 {
		t.Errorf("series=%d dropped=%d, want 4 interned and 3 dropped", st[0].Series, st[0].DroppedSeries)
	}
}

// TestTimerOverflowDrops checks a full timer ring overwrites the oldest
// samples, counts the loss, and never grows past its cap.
func TestTimerOverflowDrops(t *testing.T) {
	a := New(Config{})
	var got []float64
	tm := a.Timer("lat", 0, func(_ []string, samples []float64) {
		got = append([]float64(nil), samples...)
	}, Opts{TimerCap: 4})
	for i := 0; i < 7; i++ {
		tm.Observe(float64(i))
	}
	a.Flush()
	if len(got) != 4 {
		t.Fatalf("flushed %d samples, want 4 (the cap)", len(got))
	}
	// Samples 0-2 were overwritten by 4-6; the ring holds 3..6.
	sort.Float64s(got)
	for i, want := range []float64{3, 4, 5, 6} {
		if got[i] != want {
			t.Fatalf("ring kept %v, want the newest 4 samples [3 4 5 6]", got)
		}
	}
	if st := a.Stats(); st[0].DroppedSamples != 3 {
		t.Errorf("dropped samples = %d, want 3", st[0].DroppedSamples)
	}
}

// TestArityEnforced checks a label-count mismatch panics at the
// recording site, the same misuse contract as obs.Registry.
func TestArityEnforced(t *testing.T) {
	a := New(Config{})
	c := a.Counter("c", 1, func([]string, float64) {}, Opts{})
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	c.Add(1) // family wants 1 label
}

// TestDuplicateFamilyPanics checks duplicate registration panics.
func TestDuplicateFamilyPanics(t *testing.T) {
	a := New(Config{})
	a.Counter("dup", 0, func([]string, float64) {}, Opts{})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate family did not panic")
		}
	}()
	a.Set("dup", 0, func([]string, float64) {}, Opts{})
}

// TestConcurrentRecordFlushStorm hammers every family shape from many
// goroutines while a flusher drains and a reader polls Stats. Under
// -race this is the striping's thread-safety proof; the counter total
// must land exactly.
func TestConcurrentRecordFlushStorm(t *testing.T) {
	a := New(Config{Shards: 8})
	var (
		mu    sync.Mutex
		total float64
	)
	c := a.Counter("reqs", 2, func(_ []string, delta float64) {
		mu.Lock()
		total += delta
		mu.Unlock()
	}, Opts{})
	tm := a.Timer("lat", 1, func(_ []string, _ []float64) {}, Opts{})
	s := a.Set("users", 0, func(_ []string, _ float64) {}, Opts{})

	const (
		goroutines = 8
		perG       = 500
	)
	endpoints := []string{"/v1/query", "/v1/batch", "/v1/compare", "/healthz"}
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ep := endpoints[(gi+i)%len(endpoints)]
				c.Add2(ep, "200", 1)
				tm.Observe1(ep, float64(i)*0.001)
				s.Insert(ep)
			}
		}(gi)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			a.Flush()
			_ = a.Stats()
		}
	}()
	wg.Wait()
	<-done
	a.Flush()

	mu.Lock()
	defer mu.Unlock()
	if want := float64(goroutines * perG); total != want {
		t.Errorf("flushed counter total = %g, want %g (no increment may be lost or doubled)", total, want)
	}
}

// TestZeroAllocHotPath pins the recording hot path at zero heap
// allocations once a series' cell exists — the property that lets the
// server record per-request metrics without GC pressure.
func TestZeroAllocHotPath(t *testing.T) {
	a := New(Config{})
	c := a.Counter("reqs", 2, func([]string, float64) {}, Opts{})
	tm := a.Timer("lat", 1, func([]string, []float64) {}, Opts{TimerCap: 1 << 16})
	s := a.Set("users", 1, func([]string, float64) {}, Opts{})
	// Warm the cells and the set membership.
	c.Add2("/v1/query", "200", 1)
	tm.Observe1("/v1/query", 0.001)
	s.Insert1("shard0", "user-1")

	if n := testing.AllocsPerRun(1000, func() { c.Add2("/v1/query", "200", 1) }); n != 0 {
		t.Errorf("counter Add2 allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { tm.Observe1("/v1/query", 0.002) }); n != 0 {
		t.Errorf("timer Observe1 allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { s.Insert1("shard0", "user-1") }); n != 0 {
		t.Errorf("set Insert1 of a seen member allocates %.1f/op, want 0", n)
	}
}

// Package agg implements a statsd-style buffered aggregation stage for
// high-cardinality metrics: hot-path recording is a striped-map
// increment or a bounded-buffer append, and an explicit Flush drains
// the accumulated state into caller-supplied sinks (typically the
// families of an obs.Registry). The package exists because a histogram
// lock per observation cannot scale to per-user or per-platform label
// cardinality under heavy traffic: here the per-observation cost is one
// shard mutex from a striped pool plus an in-place update, with zero
// heap allocation once a series' cell exists.
//
// Three aggregation shapes are supported, from the statsd metric
// taxonomy:
//
//   - Counter: sums deltas between flushes; flush emits the delta and
//     resets to zero.
//   - Set: counts distinct string members per interval; flush emits the
//     cardinality and clears the membership.
//   - Timer: appends float64 samples to a bounded ring per series;
//     flush hands the samples to the sink and resets the ring. When a
//     ring is full the oldest samples are overwritten and counted as
//     dropped — bounded loss under overload instead of unbounded
//     memory.
//
// Cardinality is hard-capped per family: once MaxSeries distinct label
// tuples exist, recordings against new tuples are dropped and counted
// (Stats.DroppedSeries), never stored. A buggy or hostile caller can
// therefore cost at most cap×cell memory per family, and the loss is
// observable instead of silent.
//
// Concurrency: each family's series live in a power-of-two pool of
// shards, each a mutex plus a map keyed by the label tuple. Recording
// locks exactly one shard; Flush walks the shards one at a time, so
// recording and flushing interleave without a global stall. Sinks run
// with the owning shard locked and must not call back into the family.
package agg

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Defaults for zero Config fields.
const (
	// DefaultShards is the stripe count per family. Sixteen mutexes
	// keep eight recording goroutines from serializing while staying
	// small enough that a flush walk is cheap.
	DefaultShards = 16
	// DefaultMaxSeries bounds distinct label tuples per family.
	DefaultMaxSeries = 1024
	// DefaultTimerCap bounds buffered samples per timer series per
	// flush interval.
	DefaultTimerCap = 1024
)

// Config tunes an Aggregator.
type Config struct {
	// Shards is the stripe count per family, rounded up to a power of
	// two. Zero means DefaultShards.
	Shards int
	// MaxSeries caps distinct label tuples per family unless a family
	// overrides it. Zero means DefaultMaxSeries.
	MaxSeries int
	// TimerCap caps buffered samples per timer series per interval
	// unless a family overrides it. Zero means DefaultTimerCap.
	TimerCap int
}

// Aggregator owns a set of families and flushes them together.
type Aggregator struct {
	cfg Config

	mu     sync.Mutex // guards registration
	fams   []*family
	byName map[string]*family
}

// New builds an empty aggregator.
func New(cfg Config) *Aggregator {
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	cfg.Shards = ceilPow2(cfg.Shards)
	if cfg.MaxSeries <= 0 {
		cfg.MaxSeries = DefaultMaxSeries
	}
	if cfg.TimerCap <= 0 {
		cfg.TimerCap = DefaultTimerCap
	}
	return &Aggregator{cfg: cfg, byName: map[string]*family{}}
}

// ceilPow2 rounds n up to the next power of two.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// kind is the aggregation shape of a family.
type kind int

const (
	kindCounter kind = iota
	kindSet
	kindTimer
)

// tuple is an up-to-two-label series key. A fixed-size struct keys the
// shard maps without joining strings, so a lookup allocates nothing.
type tuple struct{ a, b string }

// cell is one series' accumulation state. Which fields are live depends
// on the family kind.
type cell struct {
	labels []string // materialized once at creation, passed to sinks

	n       float64             // counter delta
	members map[string]struct{} // set membership this interval
	buf     []float64           // timer samples this interval (cap fixed)
	next    int                 // timer ring cursor once buf is full
}

// shard is one stripe of a family's series.
type shard struct {
	mu    sync.Mutex
	cells map[tuple]*cell
}

// family is one named aggregation with a fixed label arity.
type family struct {
	name     string
	kind     kind
	arity    int
	maxSer   int
	timerCap int
	shards   []*shard
	mask     uint64

	series         atomic.Int64  // live cells across shards
	droppedSeries  atomic.Uint64 // recordings refused by the cap
	droppedSamples atomic.Uint64 // timer samples overwritten before flush

	counterSink func(labels []string, delta float64)
	setSink     func(labels []string, distinct float64)
	timerSink   func(labels []string, samples []float64)
}

// Opts overrides per-family limits at registration.
type Opts struct {
	// MaxSeries, when positive, overrides Config.MaxSeries.
	MaxSeries int
	// TimerCap, when positive, overrides Config.TimerCap (timer
	// families only).
	TimerCap int
}

// register adds a family, panicking on a duplicate name or a bad arity:
// like obs.Registry, aggregation registration is static configuration
// and a clash is a programming error.
func (a *Aggregator) register(name string, k kind, arity int, opts Opts) *family {
	if arity < 0 || arity > 2 {
		panic(fmt.Sprintf("agg: family %q wants %d labels; 0-2 supported", name, arity))
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.byName[name]; dup {
		panic(fmt.Sprintf("agg: duplicate family %q", name))
	}
	f := &family{
		name:     name,
		kind:     k,
		arity:    arity,
		maxSer:   a.cfg.MaxSeries,
		timerCap: a.cfg.TimerCap,
		shards:   make([]*shard, a.cfg.Shards),
		mask:     uint64(a.cfg.Shards - 1),
	}
	if opts.MaxSeries > 0 {
		f.maxSer = opts.MaxSeries
	}
	if opts.TimerCap > 0 {
		f.timerCap = opts.TimerCap
	}
	for i := range f.shards {
		f.shards[i] = &shard{cells: map[tuple]*cell{}}
	}
	a.fams = append(a.fams, f)
	a.byName[name] = f
	return f
}

// Counter registers a counter family: deltas sum between flushes and
// the sink receives each nonzero series delta at flush.
func (a *Aggregator) Counter(name string, arity int, sink func(labels []string, delta float64), opts Opts) *Counter {
	f := a.register(name, kindCounter, arity, opts)
	f.counterSink = sink
	return &Counter{f: f}
}

// Set registers a set family: distinct members accumulate per interval
// and the sink receives each nonempty series' cardinality at flush.
func (a *Aggregator) Set(name string, arity int, sink func(labels []string, distinct float64), opts Opts) *Set {
	f := a.register(name, kindSet, arity, opts)
	f.setSink = sink
	return &Set{f: f}
}

// Timer registers a timer family: samples buffer per series (bounded by
// TimerCap) and the sink receives each nonempty series' samples at
// flush. The sink must not retain the slice; it is reused.
func (a *Aggregator) Timer(name string, arity int, sink func(labels []string, samples []float64), opts Opts) *Timer {
	f := a.register(name, kindTimer, arity, opts)
	f.timerSink = sink
	return &Timer{f: f}
}

// hash is FNV-1a over the tuple's strings with a separator, allocation
// free.
func (t tuple) hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(t.a); i++ {
		h = (h ^ uint64(t.a[i])) * prime64
	}
	h = (h ^ 0xff) * prime64
	for i := 0; i < len(t.b); i++ {
		h = (h ^ uint64(t.b[i])) * prime64
	}
	return h
}

// cellFor locks the owning shard and returns the cell for key, creating
// it if the cardinality cap allows. The caller must unlock sh.mu when
// done with the cell. A nil cell means the recording was dropped (and
// counted); the shard is already unlocked in that case.
func (f *family) cellFor(key tuple) (*cell, *shard) {
	sh := f.shards[key.hash()&f.mask]
	sh.mu.Lock()
	c, ok := sh.cells[key]
	if !ok {
		if f.series.Load() >= int64(f.maxSer) {
			sh.mu.Unlock()
			f.droppedSeries.Add(1)
			return nil, nil
		}
		c = &cell{}
		switch f.arity {
		case 0:
			c.labels = nil
		case 1:
			c.labels = []string{key.a}
		default:
			c.labels = []string{key.a, key.b}
		}
		switch f.kind {
		case kindSet:
			c.members = make(map[string]struct{})
		case kindTimer:
			c.buf = make([]float64, 0, f.timerCap)
		}
		sh.cells[key] = c
		f.series.Add(1)
	}
	return c, sh
}

// checkArity panics when a recording call's label count does not match
// the family's registration — the same misuse contract obs.Registry
// enforces.
func (f *family) checkArity(n int) {
	if f.arity != n {
		panic(fmt.Sprintf("agg: family %q wants %d label(s), got %d", f.name, f.arity, n))
	}
}

// Counter is a counter family handle.
type Counter struct{ f *family }

// Add accumulates delta on the unlabelled series.
func (c *Counter) Add(delta float64) { c.f.checkArity(0); c.f.add(tuple{}, delta) }

// Add1 accumulates delta on the series for one label value.
func (c *Counter) Add1(l1 string, delta float64) { c.f.checkArity(1); c.f.add(tuple{a: l1}, delta) }

// Add2 accumulates delta on the series for two label values.
func (c *Counter) Add2(l1, l2 string, delta float64) {
	c.f.checkArity(2)
	c.f.add(tuple{a: l1, b: l2}, delta)
}

// add is the counter write.
func (f *family) add(key tuple, delta float64) {
	c, sh := f.cellFor(key)
	if c == nil {
		return
	}
	c.n += delta
	sh.mu.Unlock()
}

// Set is a distinct-member set family handle.
type Set struct{ f *family }

// Insert adds member to the unlabelled series' interval membership.
func (s *Set) Insert(member string) { s.f.checkArity(0); s.f.insert(tuple{}, member) }

// Insert1 adds member to the membership of the series for one label
// value.
func (s *Set) Insert1(l1, member string) { s.f.checkArity(1); s.f.insert(tuple{a: l1}, member) }

func (f *family) insert(key tuple, member string) {
	c, sh := f.cellFor(key)
	if c == nil {
		return
	}
	c.members[member] = struct{}{}
	sh.mu.Unlock()
}

// Timer is a timer family handle.
type Timer struct{ f *family }

// Observe appends a sample to the unlabelled series.
func (t *Timer) Observe(v float64) { t.f.checkArity(0); t.f.observe(tuple{}, v) }

// Observe1 appends a sample to the series for one label value.
func (t *Timer) Observe1(l1 string, v float64) { t.f.checkArity(1); t.f.observe(tuple{a: l1}, v) }

// Observe2 appends a sample to the series for two label values.
func (t *Timer) Observe2(l1, l2 string, v float64) {
	t.f.checkArity(2)
	t.f.observe(tuple{a: l1, b: l2}, v)
}

func (f *family) observe(key tuple, v float64) {
	c, sh := f.cellFor(key)
	if c == nil {
		return
	}
	if len(c.buf) < cap(c.buf) {
		c.buf = append(c.buf, v)
	} else {
		// Ring overwrite: keep the newest cap samples, count the loss.
		c.buf[c.next] = v
		c.next = (c.next + 1) % len(c.buf)
		f.droppedSamples.Add(1)
	}
	sh.mu.Unlock()
}

// Flush drains every family into its sink: counter deltas reset, set
// memberships clear, timer buffers reset (capacity kept, so the hot
// path stays allocation-free). Series cells are never deleted —
// interning is permanent, bounded by the cardinality cap. Sinks run
// with the owning shard locked; recording against other shards
// proceeds concurrently.
func (a *Aggregator) Flush() {
	a.mu.Lock()
	fams := a.fams
	a.mu.Unlock()
	for _, f := range fams {
		for _, sh := range f.shards {
			sh.mu.Lock()
			for _, c := range sh.cells {
				switch f.kind {
				case kindCounter:
					if c.n != 0 {
						f.counterSink(c.labels, c.n)
						c.n = 0
					}
				case kindSet:
					if len(c.members) > 0 {
						f.setSink(c.labels, float64(len(c.members)))
						clear(c.members)
					}
				case kindTimer:
					if len(c.buf) > 0 {
						f.timerSink(c.labels, c.buf)
						c.buf = c.buf[:0]
						c.next = 0
					}
				}
			}
			sh.mu.Unlock()
		}
	}
}

// FamilyStats is one family's cardinality accounting.
type FamilyStats struct {
	Name           string
	Series         int
	DroppedSeries  uint64
	DroppedSamples uint64
}

// Stats reports per-family cardinality and loss counters, in family
// registration order (never from a map), so callers can render them
// deterministically.
func (a *Aggregator) Stats() []FamilyStats {
	a.mu.Lock()
	fams := a.fams
	a.mu.Unlock()
	out := make([]FamilyStats, 0, len(fams))
	for _, f := range fams {
		out = append(out, FamilyStats{
			Name:           f.name,
			Series:         int(f.series.Load()),
			DroppedSeries:  f.droppedSeries.Load(),
			DroppedSamples: f.droppedSamples.Load(),
		})
	}
	return out
}

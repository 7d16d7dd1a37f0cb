// Package jobs is archline's in-process asynchronous job engine: the
// production primitive that keeps anything slower than a cache hit off
// the request path. A caller Submits a named function and gets back a
// job ID immediately; a bounded worker pool executes the function under
// a cancellable context; a registry tracks every job through the state
// machine
//
//	queued → running → done | failed | canceled
//
// with TTL eviction of terminal jobs, a queue cap with shed semantics
// (a full queue refuses the submit rather than growing without bound),
// and per-job progress events that consumers can replay and follow
// live (events.go). Close drains the engine for graceful shutdown:
// queued jobs are canceled, running jobs get until the deadline to
// finish, and stragglers are canceled through their contexts.
//
// The worker-count policy is pool.Clamp, the same single source of
// truth the engine's other fan-out layers use. The package uses only
// the Go standard library.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"archline/internal/pool"
)

// State is one stop in the job lifecycle.
type State int

// The job state machine: a job is born Queued, becomes Running when a
// worker picks it up, and ends in exactly one of the terminal states.
const (
	Queued State = iota
	Running
	Done
	Failed
	Canceled
)

// States lists every state in declaration order, so metric renderings
// and summaries never depend on map iteration order.
var States = []State{Queued, Running, Done, Failed, Canceled}

// String renders the state for wire bodies and metric labels.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Canceled:
		return "canceled"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s >= Done }

// Func is the work one job performs. It must honour ctx — cancellation
// (DELETE, engine drain) is delivered through it — and may narrate
// itself via p. The returned value becomes the job's Result.
type Func func(ctx context.Context, p *Progress) (any, error)

// Config tunes an Engine.
type Config struct {
	// Workers bounds how many jobs execute concurrently. Zero or
	// negative means DefaultWorkers (jobs are heavyweight by
	// definition; the policy is deliberately not NumCPU).
	Workers int
	// QueueDepth caps how many jobs may wait for a worker. A submit
	// past the cap is shed with ErrQueueFull. Zero means DefaultQueueDepth;
	// negative means no queueing at all (only immediate dispatch).
	QueueDepth int
	// TTL is how long terminal jobs stay queryable before eviction.
	// Zero means DefaultTTL.
	TTL time.Duration
	// Clock is the engine's time source; nil means time.Now. Tests
	// inject a fake clock to drive TTL eviction deterministically.
	Clock func() time.Time
}

// Defaults for zero Config fields.
const (
	DefaultWorkers    = 2
	DefaultQueueDepth = 16
	DefaultTTL        = 15 * time.Minute
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		// "Use the machine" per the shared pool.Clamp policy, but never
		// more than DefaultWorkers: a job is a whole-suite measure→fit
		// run, not a per-kernel work item, and the robust suite inside
		// each job already fans its kernels out over the cores.
		c.Workers = pool.Clamp(0, DefaultWorkers)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.TTL <= 0 {
		c.TTL = DefaultTTL
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Sentinel submit failures, distinguishable so the HTTP layer can map
// a full queue to 429 and a draining engine to 503.
var (
	// ErrQueueFull sheds a submit when QueueDepth jobs already wait.
	ErrQueueFull = errors.New("jobs: queue is full")
	// ErrClosed refuses submits after Close has begun draining.
	ErrClosed = errors.New("jobs: engine is draining")
)

// Snapshot is one job's externally visible state at a point in time.
// Result and Err are only meaningful in terminal states.
type Snapshot struct {
	ID      string
	Name    string
	State   State
	Created time.Time
	Started time.Time // zero until the job runs
	Ended   time.Time // zero until the job is terminal
	Err     error     // nil unless Failed or Canceled
	Result  any       // nil unless Done
	Events  int       // progress events emitted so far
}

// Stats is the engine's metrics surface: live state gauges plus
// cumulative counters, consumed by the server's Collect families.
type Stats struct {
	Queued    int
	Running   int
	Submitted int64
	Shed      int64
	Done      int64
	Failed    int64
	Canceled  int64
}

// job is the registry entry; mutable fields are guarded by Engine.mu.
type job struct {
	id      string
	name    string
	fn      Func
	ctx     context.Context
	cancel  context.CancelFunc
	state   State
	created time.Time
	started time.Time
	ended   time.Time
	err     error
	result  any
	prog    *Progress
}

// Engine runs jobs on a bounded worker pool and tracks them until TTL
// eviction. Safe for concurrent use.
type Engine struct {
	cfg   Config
	clock func() time.Time
	sem   chan struct{} // worker slots
	wg    sync.WaitGroup
	seq   atomic.Uint64

	mu      sync.Mutex
	jobs    map[string]*job
	queued  int
	running int
	closed  bool

	submitted atomic.Int64
	shed      atomic.Int64
	done      atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64
}

// New builds an engine (zero Config fields take defaults). The engine
// spawns no goroutines until jobs are submitted; Close drains it.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		cfg:   cfg,
		clock: cfg.Clock,
		sem:   make(chan struct{}, cfg.Workers),
		jobs:  map[string]*job{},
	}
}

// newJobID mints a 16-hex-char job ID, falling back to a process-local
// sequence if the system entropy source fails.
func (e *Engine) newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		return "job-" + hex.EncodeToString(b[:])
	}
	return fmt.Sprintf("job-seq-%d", e.seq.Add(1))
}

// Submit registers fn as a new job and returns its ID without waiting
// for execution. ctx carries values into the job's context (tracer,
// request ID) but NOT cancellation: the job outlives the submitting
// request by design, so callers should pass an already-detached
// context (obs.Detach). A full queue sheds with ErrQueueFull; a
// draining engine refuses with ErrClosed.
func (e *Engine) Submit(ctx context.Context, name string, fn Func) (string, error) {
	now := e.clock()
	jctx, cancel := context.WithCancel(ctx)
	j := &job{
		id:      e.newJobID(),
		name:    name,
		fn:      fn,
		ctx:     jctx,
		cancel:  cancel,
		state:   Queued,
		created: now,
		prog:    newProgress(),
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		cancel()
		return "", ErrClosed
	}
	e.evictLocked(now)
	// Occupancy cap: Workers jobs may run and QueueDepth more may
	// wait. Counting queued+running (rather than queued alone) keeps
	// the bound independent of how quickly worker goroutines move jobs
	// from one gauge to the other.
	if e.queued+e.running >= e.cfg.QueueDepth+cap(e.sem) {
		e.shed.Add(1)
		e.mu.Unlock()
		cancel()
		return "", ErrQueueFull
	}
	e.jobs[j.id] = j
	e.queued++
	e.submitted.Add(1)
	e.wg.Add(1)
	e.mu.Unlock()
	j.prog.emit("queued", map[string]any{"job": j.id, "name": name})
	//archlint:ignore ctxgoroutine job goroutines outlive Submit by design; Close joins them via wg.Wait
	go e.run(j)
	return j.id, nil
}

// run is one job's goroutine: wait for a worker slot (or cancellation),
// execute, finish.
func (e *Engine) run(j *job) {
	defer e.wg.Done()
	select {
	case e.sem <- struct{}{}:
	case <-j.ctx.Done():
		// Canceled while still queued.
		e.finish(j, nil, j.ctx.Err())
		return
	}
	defer func() { <-e.sem }()
	e.mu.Lock()
	if j.state != Queued { // canceled between dequeue and here
		e.mu.Unlock()
		return
	}
	j.state = Running
	j.started = e.clock()
	e.queued--
	e.running++
	e.mu.Unlock()
	j.prog.emit("running", nil)
	res, err := j.fn(j.ctx, j.prog)
	e.finish(j, res, err)
}

// finish moves a job to its terminal state exactly once, updates the
// counters, and closes the progress stream with a final state event.
func (e *Engine) finish(j *job, res any, err error) {
	e.mu.Lock()
	if j.state.Terminal() {
		e.mu.Unlock()
		return
	}
	switch j.state {
	case Queued:
		e.queued--
	case Running:
		e.running--
	}
	switch {
	case err == nil:
		j.state = Done
		j.result = res
		e.done.Add(1)
	case errors.Is(err, context.Canceled):
		j.state = Canceled
		j.err = err
		e.canceled.Add(1)
	default:
		j.state = Failed
		j.err = err
		e.failed.Add(1)
	}
	j.ended = e.clock()
	attrs := map[string]any{"state": j.state.String()}
	if err != nil {
		attrs["error"] = err.Error()
	}
	// The final event goes out before e.mu is released, so no snapshot
	// shows the terminal state without it. emit and close take only
	// p.mu, which snapshotLocked already nests inside e.mu, and emit
	// never blocks.
	j.prog.emit("state", attrs)
	j.prog.close()
	e.mu.Unlock()
	j.cancel() // release the context's resources on every path
}

// snapshotLocked copies a job's visible state; the caller holds e.mu.
func snapshotLocked(j *job) Snapshot {
	return Snapshot{
		ID:      j.id,
		Name:    j.name,
		State:   j.state,
		Created: j.created,
		Started: j.started,
		Ended:   j.ended,
		Err:     j.err,
		Result:  j.result,
		Events:  j.prog.count(),
	}
}

// Get returns a job's snapshot, or ok=false for unknown (or evicted)
// IDs.
func (e *Engine) Get(id string) (Snapshot, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.evictLocked(e.clock())
	j, ok := e.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return snapshotLocked(j), true
}

// Cancel requests a job's cancellation. Queued jobs become Canceled
// immediately; Running jobs have their context canceled and reach
// Canceled when the function observes it. Terminal jobs are left
// untouched. The returned snapshot reflects the post-cancel state.
func (e *Engine) Cancel(id string) (Snapshot, bool) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	if !ok {
		e.mu.Unlock()
		return Snapshot{}, false
	}
	if j.state.Terminal() {
		snap := snapshotLocked(j)
		e.mu.Unlock()
		return snap, true
	}
	wasQueued := j.state == Queued
	e.mu.Unlock()
	if !wasQueued {
		j.prog.emit("cancel.requested", nil)
	}
	j.cancel()
	if wasQueued {
		// Finish synchronously so the caller sees the terminal state
		// without racing the worker goroutine's ctx.Done select.
		e.finish(j, nil, context.Canceled)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return snapshotLocked(j), true
}

// Subscribe returns the job's progress events so far plus a channel of
// subsequent ones; the channel closes when the job is terminal (for an
// already-terminal job it is closed on return). cancel detaches the
// subscription and must always be called.
func (e *Engine) Subscribe(id string) (replay []Event, live <-chan Event, cancel func(), ok bool) {
	e.mu.Lock()
	j, found := e.jobs[id]
	e.mu.Unlock()
	if !found {
		return nil, nil, nil, false
	}
	replay, live, cancel = j.prog.subscribe()
	return replay, live, cancel, true
}

// Stats snapshots the engine's metrics surface.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	e.evictLocked(e.clock())
	queued, running := e.queued, e.running
	e.mu.Unlock()
	return Stats{
		Queued:    queued,
		Running:   running,
		Submitted: e.submitted.Load(),
		Shed:      e.shed.Load(),
		Done:      e.done.Load(),
		Failed:    e.failed.Load(),
		Canceled:  e.canceled.Load(),
	}
}

// evictLocked drops terminal jobs older than TTL; the caller holds
// e.mu. Eviction order is irrelevant (each job is judged on its own
// clock), so the map iteration is safe.
func (e *Engine) evictLocked(now time.Time) {
	for id, j := range e.jobs {
		if j.state.Terminal() && now.Sub(j.ended) > e.cfg.TTL {
			delete(e.jobs, id)
		}
	}
}

// closeGrace bounds how long Close waits for job functions to notice
// their canceled contexts after the drain deadline has already passed.
const closeGrace = 2 * time.Second

// Close drains the engine: no further submits are accepted, queued
// jobs are canceled immediately, and running jobs get until ctx's
// deadline to finish before their contexts are canceled too. It
// returns nil when every job reached a terminal state (finished or
// canceled), or an error if a job function ignored its context past
// the grace period.
func (e *Engine) Close(ctx context.Context) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	// Cancel queued jobs in place: CancelFunc only signals (finish runs
	// in the job's own goroutine), so holding e.mu here cannot deadlock,
	// and cancellation order is irrelevant.
	for _, j := range e.jobs {
		if j.state == Queued {
			j.cancel()
		}
	}
	e.mu.Unlock()
	joined := make(chan struct{})
	go func() { e.wg.Wait(); close(joined) }()
	select {
	case <-joined:
		return nil
	case <-ctx.Done():
	}
	// Deadline passed with jobs still running: cancel them and give
	// their functions a bounded grace to observe it.
	e.mu.Lock()
	for _, j := range e.jobs {
		if !j.state.Terminal() {
			j.cancel()
		}
	}
	e.mu.Unlock()
	select {
	case <-joined:
		return nil
	case <-time.After(closeGrace):
		return errors.New("jobs: drain timed out with jobs ignoring cancellation")
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"archline/internal/machine"
	"archline/internal/stats"
)

// refitRooflinePoints is the grid of the roofline a refit cycle reads
// on the version it just uploaded.
const refitRooflinePoints = 33

// countingConn counts the raw bytes read off a client connection: the
// wire size of the answers, before any gzip inflate.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// newClient is one benchmark client: a stock Go transport, which
// negotiates gzip and inflates transparently, held to one connection
// whose received bytes count into wire.
func newClient(wire *atomic.Int64) *http.Client {
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c, err := dialer.DialContext(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				return countingConn{Conn: c, n: wire}, nil
			},
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
		},
	}
}

// worker is one closed-loop client: it sends its next request only once
// the previous answer is in and checked.
type worker struct {
	id     int
	base   string
	client *http.Client
	buf    bytes.Buffer
}

// reqTime is one HTTP request's op and latency.
type reqTime struct {
	op string
	ms float64
}

// outcome is one finished operation: a request, a stream or a refit
// cycle.
type outcome struct {
	ms    float64 // the operation's latency: the sum of its requests'
	units float64 // work delivered: 1, or the stream's points
	reqs  []reqTime
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// do sends one request and reads the whole (inflated) answer into the
// worker's buffer; the latency runs from send to the last byte, and the
// status check and verification come after it.
func (w *worker) do(method, path string, body []byte, want ...int) ([]byte, float64, error) {
	req, err := http.NewRequest(method, w.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, msSince(t0), fmt.Errorf("%s %s: %w", method, path, err)
	}
	w.buf.Reset()
	_, err = w.buf.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	ms := msSince(t0)
	if err != nil {
		return nil, ms, fmt.Errorf("%s %s: reading answer: %w", method, path, err)
	}
	if !slices.Contains(want, resp.StatusCode) {
		return nil, ms, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, w.buf.Bytes())
	}
	return w.buf.Bytes(), ms, nil
}

func (w *worker) runSpec(sp *spec) (outcome, error) {
	body, ms, err := w.do(sp.method, sp.path, sp.body, http.StatusOK)
	out := outcome{ms: ms, units: 1, reqs: []reqTime{{sp.op, ms}}}
	if sp.op == opStream {
		out.units = float64(sp.points)
	}
	if err != nil {
		return out, err
	}
	return out, verify(sp, body)
}

// jobInfo mirrors a job snapshot as GET /v1/jobs/{id} answers it.
type jobInfo struct {
	ID      string     `json:"id"`
	State   string     `json:"state"`
	Created time.Time  `json:"created"`
	Started *time.Time `json:"started"`
	Ended   *time.Time `json:"ended"`
	Error   string     `json:"error"`
	Result  *struct {
		Fit   fittedParams `json:"fit"`
		Grade string       `json:"grade"`
	} `json:"result"`
}

// checkJob requires a finished fit job whose refit passes checkFit.
func checkJob(plat *machine.Platform, job *jobInfo) error {
	if job.State != "done" || job.Result == nil || job.Started == nil || job.Ended == nil {
		return fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	f := job.Result.Fit
	return checkFit(plat, job.Result.Grade, f.EpsFlopJ, f.EpsMemJ, f.Pi1W)
}

// runCycle performs one refit cycle: submit a paper-profile fit, follow
// its events to the end, read the result, upload the fitted constants
// as refit-<platform>-w<worker> (each worker owns its ids, so every
// cycle after the first is a version bump), and read the new version's
// roofline.
func (w *worker) runCycle(c cycle) (outcome, error) {
	out := outcome{units: 1}
	step := func(op, method, path string, body []byte, want ...int) ([]byte, error) {
		b, ms, err := w.do(method, path, body, want...)
		out.ms += ms
		out.reqs = append(out.reqs, reqTime{op, ms})
		return b, err
	}
	plat := builtinByID[c.platform]
	b, err := step(opFitSubmit, http.MethodPost, "/v1/fit", c.fitBody(), http.StatusAccepted)
	if err != nil {
		return out, err
	}
	var job jobInfo
	if err := json.Unmarshal(b, &job); err != nil {
		return out, fmt.Errorf("fit submit answer: %w", err)
	}
	b, err = step("job_events", http.MethodGet, "/v1/jobs/"+job.ID+"/events", nil, http.StatusOK)
	if err == nil {
		err = verifyEvents(b)
	}
	if err != nil {
		return out, err
	}
	b, err = step("job_get", http.MethodGet, "/v1/jobs/"+job.ID, nil, http.StatusOK)
	if err != nil {
		return out, err
	}
	job = jobInfo{}
	if err := json.Unmarshal(b, &job); err != nil {
		return out, fmt.Errorf("job answer: %w", err)
	}
	if err := checkJob(plat, &job); err != nil {
		return out, err
	}
	id := fmt.Sprintf("refit-%s-w%d", c.platform, w.id)
	up, err := uploadBody(plat, id, job.Result.Fit)
	if err != nil {
		return out, err
	}
	want, err := machine.FromJSON(bytes.NewReader(up))
	if err != nil {
		return out, fmt.Errorf("upload body: %w", err)
	}
	if _, err := step(opUpload, http.MethodPost, "/v1/platforms", up, http.StatusOK, http.StatusCreated); err != nil {
		return out, err
	}
	path := fmt.Sprintf("/v1/platforms/%s/roofline?points=%d", id, refitRooflinePoints)
	if b, err = step(opRoofline, http.MethodGet, path, nil, http.StatusOK); err != nil {
		return out, err
	}
	return out, verifyRoofline(b, id, want.Single, "single", refitRooflinePoints)
}

// task is one unit of closed-loop work: a request or a refit cycle.
type task struct {
	seq int // position in the generated stream
	sp  *spec
	cy  *cycle
}

func (t task) name() string {
	if t.cy != nil {
		return "refit " + t.cy.platform
	}
	return t.sp.op
}

func (w *worker) run(t task) (outcome, error) {
	if t.cy != nil {
		return w.runCycle(*t.cy)
	}
	return w.runSpec(t.sp)
}

// taskSource is the workload's seeded generator.
func taskSource(workload string, seed uint64) func() task {
	switch workload {
	case wDashboard:
		g := newDashGen(seed)
		return func() task { return task{sp: g.next()} }
	case wSweep:
		g := newSweepGen(seed)
		return func() task { return task{sp: g.next()} }
	default:
		g := newRefitGen(seed)
		return func() task {
			c := g.next()
			return task{cy: &c}
		}
	}
}

// load is what one closed-loop pass observed.
type load struct {
	mu        sync.Mutex
	lat       []float64          // successful operations, ms
	reqLat    map[reqKey]float64 // every request by stream position and op, ms
	ok        int
	units     float64
	reqs      int
	elapsed   time.Duration
	wire      int64         // bytes received on the clients' connections
	daemonCPU time.Duration // the daemon's CPU time over the pass
}

// reqKey names one request of the generated stream: the operation's
// position and the request's op (a refit cycle makes several).
type reqKey struct {
	seq int
	op  string
}

func (ld *load) record(seq int, out outcome, err error) {
	ld.mu.Lock()
	defer ld.mu.Unlock()
	ld.reqs += len(out.reqs)
	for _, r := range out.reqs {
		ld.reqLat[reqKey{seq, r.op}] = r.ms
	}
	if err != nil {
		return
	}
	ld.ok++
	ld.units += out.units
	ld.lat = append(ld.lat, out.ms)
}

// clients is the closed-loop client count: one per CPU but one, so the
// generator process and the daemon never contend for every core and the
// noise of a shared host stays out of the latencies.
func clients() int { return max(1, runtime.NumCPU()-1) }

// drive runs the workload closed loop for dur with clients() clients,
// each on a single connection, fed by one generator goroutine that owns
// the seeded RNG, so the request sequence is the same under any
// scheduling. Operations started before the deadline run to the end.
// daemonCPU reads the daemon's CPU time.
func drive(cfg config, base string, dur time.Duration, daemonCPU func() (time.Duration, error), check *tally) (*load, error) {
	n := clients()
	next := taskSource(cfg.workload, cfg.seed)
	tasks := make(chan task, n) // one queued task per client keeps the generator ahead
	stop := make(chan struct{})
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		defer close(tasks)
		for seq := 0; ; seq++ {
			t := next()
			t.seq = seq
			select {
			case tasks <- t:
			case <-stop:
				return
			}
		}
	}()
	var wire atomic.Int64
	cpu0, err := daemonCPU()
	if err != nil {
		return nil, err
	}
	ld := &load{reqLat: map[reqKey]float64{}}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &worker{id: i, base: base, client: newClient(&wire)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer w.client.CloseIdleConnections()
			for t := range tasks {
				if !time.Now().Before(deadline) {
					return
				}
				out, err := w.run(t)
				check.note(t.name(), err)
				ld.record(t.seq, out, err)
			}
		}()
	}
	wg.Wait()
	ld.elapsed = time.Since(start)
	close(stop)
	<-genDone
	cpu1, err := daemonCPU()
	if err != nil {
		return nil, err
	}
	ld.daemonCPU = cpu1 - cpu0
	ld.wire = wire.Load()
	return ld, nil
}

// runE2E boots and warms the daemon setupBoots times (setup_s is the
// median), drives the workload against the last boot for the run's
// seconds, and reports the end-to-end metrics.
func runE2E(cfg config, check *tally) (metrics, error) {
	var setups []float64
	var d *daemon
	for i := 0; i < setupBoots; i++ {
		di, secs, err := bootWarm(cfg, i)
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
		if i < setupBoots-1 {
			if err := di.stop(); err != nil {
				return nil, err
			}
			continue
		}
		d = di
	}
	defer d.stop()
	ld, err := drive(cfg, d.base, time.Duration(cfg.seconds)*time.Second, d.cpu, check)
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	if ld.ok == 0 {
		return nil, errors.New("no operation succeeded")
	}
	m := metrics{}
	m.set("setup_s", stats.Median(setups), "s")
	m.set("latency_p50_ms", stats.Quantile(ld.lat, 0.5), "ms")
	m.set("latency_p90_ms", stats.Quantile(ld.lat, 0.9), "ms")
	m.set("throughput_per_s", ld.units/ld.elapsed.Seconds(), "1/s")
	m.set("daemon_cpu_ms_per_op", ms(ld.daemonCPU)/float64(ld.ok), "ms")
	m.set("wire_bytes_per_req", float64(ld.wire)/float64(ld.reqs), "bytes")
	return m, nil
}

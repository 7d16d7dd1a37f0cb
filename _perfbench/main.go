// Command perfbench is archline's repository benchmark: one command that
// boots a freshly built archlined on loopback, drives one seeded
// workload against it, checks every answer against the model's own
// reference evaluator, and prints the run's metrics by name and unit.
//
// Run it from the checkout root through run.sh, which builds archlined
// and this driver first:
//
//	bash _perfbench/run.sh --workload dashboard --seed 1 --seconds 15 --trace 0
//	bash _perfbench/run.sh compare old.ndjson new.ndjson
//
// Workloads are closed loop with one client per CPU but one (at least
// one), each client on one connection:
//
//   - dashboard: archloadgen's default read mix over the 12 built-ins,
//     per-request overhead with response-cache hits and misses;
//   - sweep-stream: POST /v1/sweep/stream grids of 8192 to 65536 points
//     with seeded platform, precision and chunk size, gzip negotiated —
//     kernel, NDJSON encode and compress, bypassing the response cache;
//   - refit: paper-profile fit job, followed to its end, the fitted
//     constants uploaded, and a roofline read on the new version — jobs,
//     the measure→fit pipeline and registry writes.
//
// --trace 0 prints the end-to-end metrics. --trace 1 prints the
// per-layer metrics of a separate traced run: a shorter loopback pass,
// then the same seeded inputs replayed in process against
// server.New(..).Handler() through httptest.ResponseRecorder, with the
// calls into each layer's public functions timed from this package
// inside obs spans. The spans stay in memory and are written to
// <workdir>/spans-<workload>-<seed>.ndjson when the run ends.
//
// The line before the result is the run's record: host fingerprint (Go
// version, GOMAXPROCS, nproc, CPU model, kernel), a digest of the
// generated request stream, the metrics and any failures. `compare`
// reads two files of captured standard output (the result lines in them
// are skipped) and refuses to compare records whose host fingerprints
// differ:
//
//	bash _perfbench/run.sh --workload dashboard --seed 1 --trace 0 >> old.ndjson
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"

	"archline/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one run's settings.
type config struct {
	workload  string
	seed      uint64
	seconds   int
	daemonBin string
	workDir   string
	runDir    string // scratch under workDir, removed when the run ends
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// e2eNames are the --trace 0 metrics, in BENCHMARK.json's order.
var e2eNames = []string{"setup_s", "latency_p50_ms", "latency_p90_ms", "throughput_per_s",
	"wire_bytes_per_req", "daemon_cpu_ms_per_op"}

// layerMetricNames are the --trace 1 metrics.
func layerMetricNames() []string {
	var out []string
	for _, op := range allOps {
		out = append(out, "server.handler_us."+op)
	}
	for _, op := range readOps {
		out = append(out, "server.cache.hit_us."+op, "server.cache.miss_us."+op)
	}
	for _, lv := range compressLevels {
		out = append(out, "server.compress.ns_per_byte."+lv.name, "server.compress.ratio."+lv.name)
	}
	for _, l := range layerNames {
		out = append(out, "layers.share."+l)
	}
	return append(out, "daemon_rss_peak_mb", "layers.coverage", "net.overhead_us", "server.cache.hit_ratio",
		"server.stream.gzip_ns_per_point",
		"server.stream.identity_ns_per_point", "server.compress.share", "server.encode_ns_per_point",
		"model.kernel.ns_per_point", "model.kernel.build_ns", "scenario.compare_blocks_us",
		"scenario.throttle_sweep_us", "registry.get_ns.serial", "registry.get_ns.nproc",
		"registry.put_ms", "jobs.queue_wait_ms", "jobs.run_ms", "microbench.suite_ms",
		"microbench.retries", "microbench.backoff_wait_ms", "sim.measure_us", "powermon.sanitize_us",
		"fit.platform_ms", "client.cpu_share", "obs.trace_overhead")
}

// complete checks that a run reports exactly its metric list, each
// value finite.
func (m metrics) complete(want []string) error {
	if len(m) != len(want) {
		return fmt.Errorf("%d metrics reported, want %d", len(m), len(want))
	}
	for _, name := range want {
		v, ok := m[name]
		if !ok {
			return fmt.Errorf("metric %s not reported", name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s has no finite value (no samples?)", name)
		}
	}
	return nil
}

// tally counts checked operations and keeps the first failures.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

func (t *tally) note(what string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.failures) < 8 {
		t.failures = append(t.failures, what+": "+err.Error())
	}
}

// host is the fingerprint every record carries.
type host struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

func fingerprint() host {
	h := host{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPUModel: "unknown", Kernel: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

// record is the full account of one run.
type record struct {
	Host         host     `json:"host"`
	Workload     string   `json:"workload"`
	Seed         uint64   `json:"seed"`
	Trace        int      `json:"trace"`
	Seconds      int      `json:"seconds"`
	StreamDigest string   `json:"stream_digest"`
	DigestN      int      `json:"stream_digest_requests"`
	Attempted    int      `json:"attempted"`
	Failed       int      `json:"failed"`
	Metrics      metrics  `json:"metrics"`
	Uncovered    []string `json:"uncovered_layers,omitempty"`
	Failures     []string `json:"failures,omitempty"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload: dashboard, sweep-stream or refit")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated request stream")
	fs.IntVar(&cfg.seconds, "seconds", 15, "measurement time in seconds")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a traced run")
	fs.StringVar(&cfg.daemonBin, "daemon", "", "archlined binary to benchmark")
	fs.StringVar(&cfg.workDir, "workdir", ".bench_build", "directory for run scratch space and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 && fs.Arg(0) == "compare" {
		return compareMain(fs.Args()[1:], stdout, stderr)
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "perfbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	case cfg.workload != wDashboard && cfg.workload != wSweep && cfg.workload != wRefit:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s, %s or %s)\n", cfg.workload, wDashboard, wSweep, wRefit)
		return 2
	case cfg.seconds < 1 || (*trace != 0 && *trace != 1) || cfg.daemonBin == "":
		fmt.Fprintln(stderr, "perfbench: need --seconds >= 1, --trace 0 or 1, and -daemon")
		return 2
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg.runDir = dir

	check := &tally{}
	var m metrics
	var uncovered []string
	want := e2eNames
	if *trace == 0 {
		m, err = runE2E(cfg, check)
	} else {
		want = layerMetricNames()
		m, uncovered, err = runLayers(cfg, check)
	}
	if err == nil {
		err = m.complete(want)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		for _, f := range check.failures {
			fmt.Fprintln(stderr, "perfbench: FAILED", f)
		}
		return 1
	}
	rec := record{
		Host: fingerprint(), Workload: cfg.workload, Seed: cfg.seed, Trace: *trace, Seconds: cfg.seconds,
		StreamDigest: streamDigest(cfg.workload, cfg.seed), DigestN: digestN,
		Attempted: check.attempted, Failed: check.failed, Metrics: m,
		Uncovered: uncovered, Failures: check.failures,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	for _, f := range check.failures {
		fmt.Fprintln(stderr, "perfbench: FAILED", f)
	}
	res, err := json.Marshal(result{Correct: check.failed == 0, Attempted: check.attempted, Failed: check.failed, Metrics: m})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", res)
	if check.failed > 0 {
		return 1
	}
	return 0
}

// compareMain compares two files of run records metric by metric, by
// median per workload, and refuses when any two records' host
// fingerprints differ: numbers from different machines are no
// comparison.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare OLD NEW (captured standard output of benchmark runs)")
		return 2
	}
	var sets [2][]record
	for i, path := range args {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if len(recs) == 0 {
			fmt.Fprintf(stderr, "perfbench: %s holds no records\n", path)
			return 1
		}
		sets[i] = recs
	}
	ref := sets[0][0].Host
	for _, recs := range sets {
		for _, r := range recs {
			if r.Host != ref {
				fmt.Fprintf(stderr, "perfbench: refusing to compare: host %+v differs from %+v\n", r.Host, ref)
				return 3
			}
		}
	}
	type key struct{ workload, metric string }
	medians := func(recs []record) map[key]float64 {
		vals := map[key][]float64{}
		for _, r := range recs {
			for name, v := range r.Metrics {
				k := key{r.Workload, name}
				vals[k] = append(vals[k], v.Value)
			}
		}
		out := make(map[key]float64, len(vals))
		for k, v := range vals {
			out[k] = stats.Median(v)
		}
		return out
	}
	old, cur := medians(sets[0]), medians(sets[1])
	var keys []key
	for k := range old {
		if _, ok := cur[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(stdout, "%-14s %-38s %14s %14s %9s\n", "workload", "metric", "old median", "new median", "change")
	for _, k := range keys {
		change := "n/a"
		if old[k] != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(cur[k]/old[k]-1))
		}
		fmt.Fprintf(stdout, "%-14s %-38s %14.6g %14.6g %9s\n", k.workload, k.metric, old[k], cur[k], change)
	}
	return 0
}

// readRecords reads the run records in a file of captured standard
// output, skipping the result lines, which carry no host fingerprint.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Host == (host{}) {
			continue
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times: 100
// on every Linux ABI.
const clockTicks = 100

// setupBoots is how many times an end-to-end run boots and warms a
// daemon; setup_s is their median and the last one is measured.
const setupBoots = 5

// daemon is one archlined child process listening on loopback.
type daemon struct {
	cmd    *exec.Cmd
	base   string        // http://127.0.0.1:<port>
	exited chan struct{} // closed once the process has been reaped
	err    error         // Wait's result, valid once exited is closed
	once   sync.Once
}

// startDaemon launches archlined on an ephemeral loopback port with its
// registry in dataDir and returns once it reports its address. The
// daemon's structured request log (stderr) goes to the null device.
func startDaemon(bin, dataDir string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("archlined stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting archlined: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "archlined listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
		// Wait closes the stdout pipe, so it runs once the pipe is drained.
		d.err = cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.base = <-addr:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("archlined exited before listening: %v", d.err)
	case <-time.After(30 * time.Second):
		_ = d.stop()
		return nil, errors.New("archlined did not report its address within 30s")
	}
}

// stop asks the daemon to drain (SIGTERM), kills it if it has not exited
// within 20s, and returns once it is reaped. Later calls return nil.
func (d *daemon) stop() error {
	var err error
	d.once.Do(func() {
		if serr := d.cmd.Process.Signal(syscall.SIGTERM); serr != nil && !errors.Is(serr, os.ErrProcessDone) {
			err = fmt.Errorf("signalling archlined: %w", serr)
		}
		select {
		case <-d.exited:
			if d.err != nil && err == nil {
				err = fmt.Errorf("archlined: %w", d.err)
			}
		case <-time.After(20 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
			err = errors.New("archlined did not drain within 20s")
		}
	})
	return err
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// cpu is the daemon's CPU time so far.
func (d *daemon) cpu() (time.Duration, error) { return cpuTime(d.pid()) }

// cpuTime is a process's user+system CPU time, from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	path := "/proc/" + strconv.Itoa(pid) + "/stat"
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields resume after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("%s: no command field", path)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("%s: %d fields", path, len(f))
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSSMiB is a process's peak resident set (VmHWM) in MiB.
func peakRSSMiB(pid int) (float64, error) {
	path := "/proc/" + strconv.Itoa(pid) + "/status"
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM", path)
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// warmupSpecs is the fixed, unseeded warm-up every daemon and every
// in-process server gets before anything is timed: the listing, a
// 17-point roofline and a query per built-in, and one 8192-point
// stream, so kernel tables and pooled buffers exist before the first
// measured request.
func warmupSpecs() []*spec {
	out := []*spec{{op: opPlatforms, method: http.MethodGet, path: "/v1/platforms"}}
	for _, p := range builtins {
		id := string(p.ID)
		out = append(out, &spec{op: opRoofline, method: http.MethodGet,
			path: "/v1/platforms/" + id + "/roofline?points=17", plats: []string{id}, points: 17})
		q := &spec{op: opQuery, plats: []string{id}, intensities: []float64{1}}
		q.post("/v1/query", map[string]any{"platform_id": id, "intensity": 1.0})
		out = append(out, q)
	}
	s := &spec{op: opStream, plats: []string{string(builtins[0].ID)}, precision: "single",
		points: 8192, chunk: 512, sample: []int{0, 4095, 8191}}
	s.post("/v1/sweep/stream", map[string]any{"platform_id": s.plats[0], "points": 8192, "chunk_points": 512})
	return append(out, s)
}

// bootWarm starts a daemon on a fresh data directory and warms it; the
// seconds returned run from exec to the last warm-up answer.
func bootWarm(cfg config, i int) (*daemon, float64, error) {
	t0 := time.Now()
	d, err := startDaemon(cfg.daemonBin, filepath.Join(cfg.runDir, "data-"+strconv.Itoa(i)))
	if err != nil {
		return nil, 0, err
	}
	w := &worker{base: d.base, client: &http.Client{Timeout: 30 * time.Second}}
	defer w.client.CloseIdleConnections()
	for _, sp := range warmupSpecs() {
		if _, err := w.runSpec(sp); err != nil {
			_ = d.stop()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return d, time.Since(t0).Seconds(), nil
}

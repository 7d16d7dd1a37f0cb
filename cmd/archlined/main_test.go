package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// runDaemonEnv marks a re-execution of this test binary as the daemon,
// so the drills run main()'s real signal wiring and exit path.
const runDaemonEnv = "ARCHLINED_TEST_RUN_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(runDaemonEnv) == "1" {
		main() // exits
	}
	os.Exit(m.Run())
}

// daemon is one archlined process, its stdout and stderr in one file.
type daemon struct {
	cmd    *exec.Cmd
	log    string
	base   string
	exited chan error
}

// startDaemon boots archlined on an ephemeral port with the given extra
// flags and waits for its address. The test's end kills it if need be.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	log, err := os.CreateTemp(t.TempDir(), "daemon")
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close() // the child holds its own descriptor
	d := &daemon{log: log.Name(), exited: make(chan error, 1)}
	d.cmd = exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Env = append(os.Environ(), runDaemonEnv+"=1")
	d.cmd.Stdout, d.cmd.Stderr = log, log
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { d.exited <- d.cmd.Wait() }()
	t.Cleanup(func() { _ = d.cmd.Process.Kill() })
	d.base = strings.TrimPrefix(d.waitFor(t, "archlined listening on "), "archlined listening on ")
	return d
}

func (d *daemon) output(t *testing.T) string {
	t.Helper()
	out, err := os.ReadFile(d.log)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// waitFor polls the daemon's output for a complete line containing want.
func (d *daemon) waitFor(t *testing.T, want string) string {
	t.Helper()
	for start := time.Now(); time.Since(start) < 10*time.Second; time.Sleep(5 * time.Millisecond) {
		lines := strings.Split(d.output(t), "\n")
		for _, line := range lines[:len(lines)-1] {
			if strings.Contains(line, want) {
				return line
			}
		}
	}
	t.Fatalf("daemon output never showed %q:\n%s", want, d.output(t))
	return ""
}

// terminate sends SIGTERM and requires a clean drain: exit 0 within
// 5 s, with the drain on record.
func (d *daemon) terminate(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-d.exited:
		if err != nil || !strings.Contains(d.output(t), "drained") {
			t.Fatalf("exit after SIGTERM: %v; output:\n%s", err, d.output(t))
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("no drain within 5 s of SIGTERM; output:\n%s", d.output(t))
	}
}

// client bounds every request, so a wedged daemon fails the drill
// instead of hanging it.
var client = &http.Client{Timeout: 10 * time.Second}

func (d *daemon) call(t *testing.T, method, path, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, d.base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestDrainOnSIGTERM boots the daemon with the job-engine knobs an
// operator sets, checks it serves, and requires SIGTERM to drain it.
func TestDrainOnSIGTERM(t *testing.T) {
	d := startDaemon(t, "-job-workers", "2", "-job-queue", "4", "-job-ttl", "1m")
	if resp, body := d.call(t, http.MethodGet, "/healthz", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
	d.terminate(t)
}

// driftBody's eps_mem has no exact decimal image after the pJ-to-J
// conversion, so an encoder that divides by the scale drifts.
const driftBody = `{"id":"rt-289","name":"y","class":"mini","cache_line_bytes":64,` +
	`"vendor_single_gflops":117.97777777777777,"vendor_mem_gbs":48.15734989648033,` +
	`"idle_w":146.26822916666666,"sustained_single_gflops":82.73890608875129,` +
	`"sustained_mem_gbs":328.1336405529954,"eps_s_pj_per_flop":311.44767441860466,` +
	`"eps_mem_pj_per_byte":115.30538922155688,"pi1_w":105.87445255474452,"delta_pi_w":307.65384615384613}`

// TestCrashRecovery: an upload acknowledged before a SIGKILL comes back
// under its ETag, a blob corrupted meanwhile is quarantined, and the
// restarted daemon's answer is byte-identical.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	const query = `{"platform_id":"rt-289","w_flops":1e12,"q_bytes":3e12}`
	d := startDaemon(t, "-data-dir", dir)
	resp, body := d.call(t, http.MethodPost, "/v1/platforms", driftBody)
	var ack struct{ ETag, Outcome string }
	if err := json.Unmarshal(body, &ack); err != nil || resp.StatusCode != http.StatusCreated || ack.Outcome != "created" {
		t.Fatalf("upload: %d %s (%v)", resp.StatusCode, body, err)
	}
	resp, before := d.call(t, http.MethodPost, "/v1/query", query)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, before)
	}

	// No drain: the acknowledged write must already be on disk.
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-d.exited
	// Bit rot: bytes that do not match their content address.
	rot := filepath.Join(dir, "blobs", strings.Repeat("c", 64)+".json")
	if err := os.WriteFile(rot, []byte("not a registry envelope"), 0o644); err != nil {
		t.Fatal(err)
	}

	r := startDaemon(t, "-data-dir", dir)
	r.waitFor(t, "recovered 1 uploaded platform(s), 0 tombstone(s), quarantined 1,")
	if resp, _ := r.call(t, http.MethodGet, "/v1/platforms/rt-289", ""); resp.Header.Get("ETag") != ack.ETag {
		t.Errorf("recovered platform: status %d, ETag %q, want %q", resp.StatusCode, resp.Header.Get("ETag"), ack.ETag)
	}
	if _, expo := r.call(t, http.MethodGet, "/metrics", ""); !bytes.Contains(expo, []byte("archlined_registry_quarantined_blobs_total 1\n")) {
		t.Error("metrics do not count the quarantined blob")
	}
	if resp, after := r.call(t, http.MethodPost, "/v1/query", query); !bytes.Equal(after, before) {
		t.Errorf("query after the crash: %d\n%s\nbefore the crash:\n%s", resp.StatusCode, after, before)
	}
	r.terminate(t)
}

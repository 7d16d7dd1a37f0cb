package cli

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"archline/internal/experiments"
	"archline/internal/fit"
	"archline/internal/machine"
	"archline/internal/microbench"
)

// fastOpts keep command tests quick.
func fastOpts() experiments.Options {
	return experiments.Options{Seed: 7, SweepPoints: 10}
}

// runCmd executes one subcommand and returns its output.
func runCmd(t *testing.T, cmd string, plat machine.ID) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Run(cmd, fastOpts(), plat, &buf); err != nil {
		t.Fatalf("%s: %v", cmd, err)
	}
	return buf.String()
}

func TestCommandsProduceTheirArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("full command sweep in -short mode")
	}
	cases := []struct {
		cmd    string
		expect []string
	}{
		{"fig1", []string{"Fig. 1", "47 x Arndale GPU", "crossover"}},
		{"fig5", []string{"Fig. 5", "GTX Titan", "regimes:"}},
		{"fig6", []string{"Fig. 6", "peak power ratio"}},
		{"fig7a", []string{"Fig. 7a"}},
		{"fig7b", []string{"Fig. 7b"}},
		{"scenarios", []string{"Section V-B", "Section V-C", "Section V-D"}},
		{"dp", []string{"Double precision", "eps_d/eps_s"}},
		{"network", []string{"47-Arndale-GPU", "InfiniBand"}},
		{"dvfs", []string{"DVFS extension"}},
		{"pi1", []string{"Constant-power reduction"}},
		{"sweep", []string{"model sweep", "intensity", "throttle"}},
		{"scaling", []string{"Cluster scaling", "strong scaling", "weak scaling"}},
		{"roofline", []string{"time roofline", "energy roofline", "power cap binds"}},
		{"list", []string{"Table I platforms", "gtx-titan", "arndale-gpu"}},
	}
	for _, c := range cases {
		out := runCmd(t, c.cmd, machine.GTXTitan)
		for _, want := range c.expect {
			if !strings.Contains(out, want) {
				t.Errorf("%s: output missing %q", c.cmd, want)
			}
		}
	}
}

func TestFitCommand(t *testing.T) {
	out := runCmd(t, "fit", machine.ArndaleCPU)
	for _, want := range []string{"Arndale CPU", "fitted", "published", "pi_1", "eps_rand", "log-residual"} {
		if !strings.Contains(out, want) {
			t.Errorf("fit output missing %q", want)
		}
	}
}

func TestFig4Command(t *testing.T) {
	var buf bytes.Buffer
	opts := fastOpts()
	// Replicates default to 4 inside the command.
	if err := Run("fig4", opts, machine.GTXTitan, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "K-S") {
		t.Error("fig4 output missing K-S table")
	}
}

func TestTable1Command(t *testing.T) {
	out := runCmd(t, "table1", machine.GTXTitan)
	if !strings.Contains(out, "Table I reproduction") {
		t.Error("table1 output missing title")
	}
}

func TestExperimentsMDCommand(t *testing.T) {
	out := runCmd(t, "experiments-md", machine.GTXTitan)
	for _, want := range []string{"# EXPERIMENTS", "## Table I", "## Fig. 4", "Extensions beyond"} {
		if !strings.Contains(out, want) {
			t.Errorf("experiments-md missing %q", want)
		}
	}
}

// TestExperimentsMDMatchesRecord holds the committed EXPERIMENTS.md to
// what `archline experiments-md` prints with the CLI's own defaults, so
// a change that moves a fitted constant must regenerate the record.
func TestExperimentsMDMatchesRecord(t *testing.T) {
	want, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := Main([]string{"experiments-md"}, &stdout, &stderr); code != 0 {
		t.Fatalf("experiments-md exited %d: %s", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Error("EXPERIMENTS.md is stale: regenerate it with `go run ./cmd/archline experiments-md > EXPERIMENTS.md`")
	}
}

func TestRooflineUncappedPlatformMessage(t *testing.T) {
	// Build output for a platform and check the cap-range line exists in
	// one form or the other (all Table I platforms bind somewhere, so
	// exercise the "binds" branch; the "never binds" branch is covered by
	// the message choice logic itself).
	out := runCmd(t, "roofline", machine.XeonPhi)
	if !strings.Contains(out, "power cap binds for I in") {
		t.Error("roofline should report the cap-binding range")
	}
}

func TestUnknownCommandAndPlatformErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("nonsense", fastOpts(), machine.GTXTitan, &buf); err == nil {
		t.Error("unknown command should error")
	}
	for _, cmd := range []string{"fit", "sweep", "roofline"} {
		if err := Run(cmd, fastOpts(), "no-such-platform", &buf); err == nil {
			t.Errorf("%s with bad platform should error", cmd)
		}
	}
}

func TestMainExitCodes(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Main([]string{"list"}, &out, &errb); code != 0 {
		t.Errorf("list exit code %d, stderr %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Table I platforms") {
		t.Error("list output missing")
	}
	out.Reset()
	errb.Reset()
	if code := Main([]string{}, &out, &errb); code != 2 {
		t.Errorf("no command should exit 2, got %d", code)
	}
	if !strings.Contains(errb.String(), "usage:") {
		t.Error("usage should print on stderr")
	}
	errb.Reset()
	if code := Main([]string{"bogus"}, &out, &errb); code != ExitUsage {
		t.Errorf("unknown command should exit %d (usage), got %d", ExitUsage, code)
	}
	if code := Main([]string{"-badflag"}, &out, &errb); code != ExitUsage {
		t.Error("bad flag should exit 2")
	}
	// Runtime failures (valid command, bad input) exit 1, not 2.
	errb.Reset()
	if code := Main([]string{"-platform", "no-such-platform", "sweep"}, &out, &errb); code != ExitRuntime {
		t.Errorf("unknown platform should exit %d (runtime), got %d", ExitRuntime, code)
	}
	// Flags reach the command.
	out.Reset()
	errb.Reset()
	if code := Main([]string{"-platform", "xeon-phi", "-points", "8", "sweep"}, &out, &errb); code != 0 {
		t.Fatalf("sweep failed: %s", errb.String())
	}
	if !strings.Contains(out.String(), "Xeon Phi") {
		t.Error("platform flag ignored")
	}
}

// TestPointsBelowMinimum: a -points value a command cannot run with is
// a usage error, refused before any suite runs and naming the minimum:
// 2 for a command that builds a suite, fit.MinSweepPoints for one that
// fits it. Values that work still do.
func TestPointsBelowMinimum(t *testing.T) {
	refused := []struct {
		cmd    string
		points string
		least  int
	}{
		{"fit", "3", fit.MinSweepPoints},
		{"measure", "5", fit.MinSweepPoints},
		{"table1", "3", fit.MinSweepPoints},
		{"experiments-md", "3", fit.MinSweepPoints},
		{"all", "1", fit.MinSweepPoints},
		{"export", "1", microbench.MinSweepPoints},
		{"fig1", "1", microbench.MinSweepPoints},
		{"fig4", "1", microbench.MinSweepPoints},
		{"fig5", "0", microbench.MinSweepPoints},
		{"export", "0", microbench.MinSweepPoints},
		{"fit", "-4", fit.MinSweepPoints},
	}
	for _, c := range refused {
		var out, errb bytes.Buffer
		if code := Main([]string{"-points", c.points, c.cmd}, &out, &errb); code != ExitUsage {
			t.Errorf("-points %s %s: exit %d, want %d (usage)", c.points, c.cmd, code, ExitUsage)
		}
		if msg := errb.String(); !strings.Contains(msg, "-points "+c.points) || !strings.Contains(msg, fmt.Sprintf("at least %d", c.least)) {
			t.Errorf("-points %s %s: stderr %q names neither the value nor the minimum %d", c.points, c.cmd, msg, c.least)
		}
	}
	for _, args := range [][]string{
		{"-points", "3", "export"},
		{"-points", "3", "fig1"},
		{"-points", "1", "sweep"},
		{"-points", "6", "-platform", "arndale-cpu", "fit"},
	} {
		var out, errb bytes.Buffer
		if code := Main(args, &out, &errb); code != ExitOK {
			t.Errorf("%v: exit %d: %s", args, code, errb.String())
		}
	}
}

func TestExportCommand(t *testing.T) {
	var buf bytes.Buffer
	opts := fastOpts()
	opts.SweepPoints = 6
	if err := Run("export", opts, machine.GTXTitan, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasPrefix(lines[0], "platform,kernel,precision") {
		t.Error("CSV header missing")
	}
	// All 12 platforms appear.
	for _, id := range []string{"gtx-titan", "xeon-phi", "arndale-gpu", "desktop-cpu"} {
		if !strings.Contains(buf.String(), id) {
			t.Errorf("export missing platform %s", id)
		}
	}
	// Every row has the full column count.
	for i, l := range lines {
		if got := len(strings.Split(l, ",")); got != 12 {
			t.Fatalf("row %d has %d columns", i, got)
		}
	}
	if len(lines) < 12*6 {
		t.Errorf("export suspiciously small: %d rows", len(lines))
	}
}

func TestMountainCommand(t *testing.T) {
	out := runCmd(t, "mountain", machine.XeonPhi)
	if !strings.Contains(out, "memory mountain") {
		t.Error("mountain output missing")
	}
}

func TestPlatformFileFlow(t *testing.T) {
	// Export a Table I platform, reload it through -platform-file, and
	// run the platform-scoped commands against it.
	dir := t.TempDir()
	path := dir + "/custom.json"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := machine.ToJSON(f, machine.MustByID(machine.ArndaleGPU)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out, errb bytes.Buffer
	if code := Main([]string{"-platform-file", path, "sweep"}, &out, &errb); code != 0 {
		t.Fatalf("sweep via platform-file: %s", errb.String())
	}
	if !strings.Contains(out.String(), "Arndale GPU") {
		t.Error("custom platform not used")
	}
	out.Reset()
	if code := Main([]string{"-platform-file", path, "roofline"}, &out, &errb); code != 0 {
		t.Fatalf("roofline via platform-file: %s", errb.String())
	}
	if !strings.Contains(out.String(), "time roofline") {
		t.Error("roofline output missing")
	}
	// Unsupported command with a platform file: the caller's mistake, so
	// it is a usage error, not a runtime failure.
	errb.Reset()
	if code := Main([]string{"-platform-file", path, "fig5"}, &out, &errb); code != ExitUsage {
		t.Errorf("fig5 with platform-file should exit %d (usage), got %d", ExitUsage, code)
	}
	if !strings.Contains(errb.String(), "does not support") {
		t.Error("error message should explain")
	}
	// Missing file.
	if code := Main([]string{"-platform-file", dir + "/nope.json", "sweep"}, &out, &errb); code != 1 {
		t.Error("missing file should fail")
	}
	// Malformed file.
	bad := dir + "/bad.json"
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := Main([]string{"-platform-file", bad, "sweep"}, &out, &errb); code != 1 {
		t.Error("malformed file should fail")
	}
}

// lockedBuffer is a goroutine-safe writer for daemon output.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func TestServeCommand(t *testing.T) {
	// Substitute a test-cancellable context for the signal-driven one.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	orig := serveContext
	serveContext = func() (context.Context, context.CancelFunc) {
		return context.WithCancel(ctx)
	}
	defer func() { serveContext = orig }()

	var out, errb lockedBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- Main([]string{"serve", "-addr", "127.0.0.1:0"}, &out, &errb)
	}()

	// Wait for the startup line and extract the base URL.
	var base string
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && base == "" {
		if _, rest, ok := strings.Cut(out.String(), "listening on "); ok {
			if url, _, ok := strings.Cut(rest, "\n"); ok {
				base = strings.TrimSpace(url)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if base == "" {
		t.Fatalf("daemon never announced its address; stderr: %s", errb.String())
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d, err %v", resp.StatusCode, err)
	}
	if !strings.Contains(string(body), `"ok"`) {
		t.Errorf("healthz body = %s", body)
	}

	cancel() // deliver the "signal"
	select {
	case code := <-exit:
		if code != ExitOK {
			t.Errorf("serve exit code %d, want %d; stderr: %s", code, ExitOK, errb.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down after cancellation")
	}
	if !strings.Contains(errb.String(), "drained") {
		t.Errorf("drain message missing from stderr: %s", errb.String())
	}
}

func TestServeUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Main([]string{"serve", "-nosuchflag"}, &out, &errb); code != ExitUsage {
		t.Errorf("bad serve flag should exit %d, got %d", ExitUsage, code)
	}
	errb.Reset()
	if code := Main([]string{"serve", "surplus"}, &out, &errb); code != ExitUsage {
		t.Errorf("surplus serve argument should exit %d, got %d", ExitUsage, code)
	}
	if !strings.Contains(errb.String(), "unexpected argument") {
		t.Errorf("stderr should name the surplus argument: %s", errb.String())
	}
}

func TestExperimentsMDDeterministic(t *testing.T) {
	// The published record must be reproducible: two runs with the same
	// options emit byte-identical EXPERIMENTS.md content.
	var a, b bytes.Buffer
	opts := fastOpts()
	if err := Run("experiments-md", opts, machine.GTXTitan, &a); err != nil {
		t.Fatal(err)
	}
	if err := Run("experiments-md", opts, machine.GTXTitan, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("experiments-md output is not deterministic")
	}
}

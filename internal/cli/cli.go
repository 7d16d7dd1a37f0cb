// Package cli implements the archline command-line tool: one subcommand
// per table/figure of the paper plus utilities. It lives in an internal
// package (rather than package main) so every command path is unit
// tested.
package cli

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"syscall"

	"archline/internal/experiments"
	"archline/internal/faults"
	"archline/internal/fit"
	"archline/internal/machine"
	"archline/internal/microbench"
	"archline/internal/model"
	"archline/internal/obs"
	"archline/internal/report"
	"archline/internal/server"
	"archline/internal/sim"
	"archline/internal/units"
)

// Exit codes: usage errors (bad flags, unknown commands) are
// distinguished from runtime failures so scripts can tell a typo from a
// genuinely failed computation.
const (
	ExitOK      = 0
	ExitRuntime = 1
	ExitUsage   = 2
)

// ErrUsage marks an error as the caller's mistake (unknown command,
// unsupported flag combination); Main maps it to ExitUsage.
var ErrUsage = errors.New("usage error")

// Usage is the help text.
const Usage = `usage: archline [flags] <command>

commands:
  table1     Table I: fit all twelve platforms and compare to published constants
  fig1       Fig. 1: GTX Titan vs Arndale GPU building blocks
  fig4       Fig. 4: capped vs uncapped model error distributions (K-S tests)
  fig5       Fig. 5: power vs intensity, all platforms
  fig6       Fig. 6: power under reduced caps
  fig7a      Fig. 7a: performance under reduced caps
  fig7b      Fig. 7b: energy efficiency under reduced caps
  scenarios  Sections V-B, V-C, V-D analyses
  dp         Double-precision energy analysis (Table I eps_d columns)
  network    Fig. 1 aggregate re-evaluated with interconnect costs
  dvfs       Energy-optimal frequency per intensity (DVFS extension)
  pi1        Constant-power reduction what-if (the conclusions' question)
  mountain   Memory mountain: bandwidth vs working set and stride (-platform)
  scaling    Strong/weak cluster scaling of the Arndale building block
  export     Dump every platform's suite measurements as CSV (released dataset)
  fit        Fit one platform (-platform) and print recovered constants
  measure    Fault-tolerant measure+fit for one platform (-platform, -faults, -fault-seed, -trace-out)
  sweep      Print one platform's model curves over intensity (-platform)
  roofline   ASCII time and energy rooflines for one platform (-platform)
  list       List the twelve platforms
  experiments-md  Emit EXPERIMENTS.md (paper-vs-measured record)
  all        Run everything in paper order
  serve      Run archlined, the HTTP/JSON query daemon (own flags; -h lists them)

exit codes: 0 success, 1 runtime failure, 2 usage error
`

// Main parses args (excluding the program name) and runs the command,
// writing output to stdout and diagnostics to stderr. It returns the
// process exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("archline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// fail reports an error on stderr and returns the process exit
	// code. A failed stderr write has no further recovery path.
	fail := func(err error) int {
		_, _ = fmt.Fprintln(stderr, "archline:", err)
		if errors.Is(err, ErrUsage) {
			return ExitUsage
		}
		return ExitRuntime
	}
	var (
		seed       = fs.Uint64("seed", 42, "simulation noise seed")
		points     = fs.Int("points", 25, "intensity sweep points per platform")
		replicates = fs.Int("replicates", 1, "suite replicates (fig4 uses 4 by default)")
		noiseless  = fs.Bool("noiseless", false, "disable measurement noise")
		workers    = fs.Int("workers", 0,
			"worker-pool width per fan-out level (0 = all CPUs); results are identical at any width")
		platform   = fs.String("platform", "gtx-titan", "platform ID for fit/sweep/roofline/measure")
		platFile   = fs.String("platform-file", "", "JSON platform description to use instead of -platform")
		faultsProf = fs.String("faults", "none", "fault-injection profile for measure: none, paper, harsh")
		faultSeed  = fs.Uint64("fault-seed", 7, "fault-schedule seed for measure (same seed, same faults)")
		traceOut   = fs.String("trace-out", "", "write the measure pipeline's span tree to this file as NDJSON")
	)
	fs.Usage = func() {
		_, _ = fmt.Fprint(stderr, Usage)
		_, _ = fmt.Fprintln(stderr, "flags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return ExitUsage
	}
	// serve takes its own flag set (daemon tuning is disjoint from the
	// experiment flags), so hand everything after the command to it.
	if fs.NArg() >= 1 && fs.Arg(0) == "serve" {
		return serveMain(fs.Args()[1:], stdout, stderr)
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return ExitUsage
	}
	if least := minSweepPoints(fs.Arg(0)); *points < least {
		return fail(fmt.Errorf("%w: -points %d: %s needs at least %d sweep points", ErrUsage, *points, fs.Arg(0), least))
	}
	opts := experiments.Options{
		Seed:        *seed,
		SweepPoints: *points,
		Noiseless:   *noiseless,
		Replicates:  *replicates,
		Workers:     *workers,
	}
	// measure carries fault-injection flags the generic dispatch does not
	// know about, so it is routed here (with -platform-file support).
	if fs.Arg(0) == "measure" {
		plat, err := loadPlatform(*platFile, machine.ID(*platform))
		if err != nil {
			return fail(err)
		}
		if err := measurePlatform(opts, plat, *faultsProf, *faultSeed, *traceOut, stdout); err != nil {
			return fail(err)
		}
		return ExitOK
	}
	if *platFile != "" {
		custom, err := loadPlatform(*platFile, "")
		if err != nil {
			return fail(err)
		}
		if err := RunOn(fs.Arg(0), opts, custom, stdout); err != nil {
			return fail(err)
		}
		return ExitOK
	}
	if err := Run(fs.Arg(0), opts, machine.ID(*platform), stdout); err != nil {
		return fail(err)
	}
	return ExitOK
}

// minSweepPoints returns the fewest -points cmd runs with: the suite's
// minimum for a command that builds one, the fit's for one that fits
// it too, and 0 for a command that reads no -points.
func minSweepPoints(cmd string) int {
	switch cmd {
	case "table1", "experiments-md", "fit", "measure", "all":
		return fit.MinSweepPoints
	case "fig1", "fig4", "fig5", "export":
		return microbench.MinSweepPoints
	}
	return 0
}

// serveContext builds the daemon's run context. It is a variable so cli
// tests can substitute a cancellable context for the signal-driven one.
var serveContext = func() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// serveMain runs the archlined daemon until SIGINT/SIGTERM.
func serveMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("archline serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", server.DefaultAddr, "listen address (host:port; port 0 is ephemeral)")
		entries     = fs.Int("cache-entries", server.DefaultCacheEntries, "response LRU cache capacity")
		timeout     = fs.Duration("timeout", server.DefaultRequestTimeout, "per-request processing deadline")
		maxBody     = fs.Int64("max-body", server.DefaultMaxBodyBytes, "request body size limit in bytes")
		drain       = fs.Duration("drain", server.DefaultDrainTimeout, "graceful-shutdown drain timeout")
		maxInflight = fs.Int("max-inflight", server.DefaultMaxInFlight,
			"concurrent-request ceiling before /v1 load shedding (negative disables)")
		chaosProf = fs.String("chaos", "",
			"chaos middleware fault profile (paper, harsh); off unless set explicitly")
		chaosSeed  = fs.Uint64("chaos-seed", 42, "seed for chaos draws (same seed, same chaos)")
		traceLog   = fs.String("trace-log", "", "write every finished request span to this file as NDJSON")
		pprofOn    = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		jobWorkers = fs.Int("job-workers", 0,
			"concurrent async fit jobs (0 = default 2, clamped to the CPU count)")
		jobQueue = fs.Int("job-queue", 0,
			"queued-job cap beyond the running ones before POST /v1/fit sheds with 429 (0 = default 16, negative disables queueing)")
		jobTTL = fs.Duration("job-ttl", 0,
			"how long finished jobs stay pollable before eviction (0 = default 15m)")
		dataDir = fs.String("data-dir", "",
			"directory for the persistent platform registry; empty runs it in memory (uploads rejected)")
	)
	if err := fs.Parse(args); err != nil {
		return ExitUsage
	}
	if fs.NArg() != 0 {
		_, _ = fmt.Fprintf(stderr, "archline serve: unexpected argument %q\n", fs.Arg(0))
		return ExitUsage
	}
	// An unknown chaos profile is the caller's typo: catch it before the
	// daemon boots rather than failing at listen time.
	if _, err := faults.ByName(*chaosProf); err != nil {
		_, _ = fmt.Fprintln(stderr, "archline serve:", err)
		return ExitUsage
	}
	ctx, cancel := serveContext()
	defer cancel()
	cfg := server.Config{
		Addr:           *addr,
		MaxBodyBytes:   *maxBody,
		RequestTimeout: *timeout,
		CacheEntries:   *entries,
		DrainTimeout:   *drain,
		MaxInFlight:    *maxInflight,
		ChaosProfile:   *chaosProf,
		ChaosSeed:      *chaosSeed,
		LogWriter:      stderr,
		EnablePprof:    *pprofOn,
		JobWorkers:     *jobWorkers,
		JobQueueDepth:  *jobQueue,
		JobTTL:         *jobTTL,
		DataDir:        *dataDir,
	}
	var tf *os.File
	if *traceLog != "" {
		var err error
		tf, err = os.Create(*traceLog)
		if err != nil {
			_, _ = fmt.Fprintln(stderr, "archline serve:", err)
			return ExitRuntime
		}
		cfg.TraceWriter = tf
	}
	err := server.Run(ctx, cfg, stdout, stderr)
	if tf != nil {
		if cerr := tf.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		_, _ = fmt.Fprintln(stderr, "archline serve:", err)
		return ExitRuntime
	}
	return ExitOK
}

// RunOn dispatches the per-platform subcommands against a custom
// (JSON-loaded) platform. Only the platform-scoped commands are
// supported; the table/figure reproductions are tied to the Table I set.
func RunOn(cmd string, opts experiments.Options, plat *machine.Platform, w io.Writer) error {
	switch cmd {
	case "fit":
		return fitPlatform(opts, plat, w)
	case "sweep":
		return sweepPlatform(plat, w)
	case "roofline":
		return rooflinePlatform(plat, w)
	default:
		return fmt.Errorf("%w: command %q does not support -platform-file (use fit, sweep, roofline, or measure)", ErrUsage, cmd)
	}
}

// renderer is anything that formats itself.
type renderer interface{ Render() string }

// Run dispatches one subcommand, writing its artefact to w.
func Run(cmd string, opts experiments.Options, plat machine.ID, w io.Writer) error {
	render := func(f func() (renderer, error)) error {
		r, err := f()
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(w, r.Render())
		return err
	}
	switch cmd {
	case "table1":
		return render(func() (renderer, error) { r, err := experiments.TableI(opts); return r, err })
	case "fig1":
		return render(func() (renderer, error) { r, err := experiments.Fig1(opts); return r, err })
	case "fig4":
		if opts.Replicates <= 1 {
			opts.Replicates = 4
		}
		return render(func() (renderer, error) { r, err := experiments.Fig4(opts); return r, err })
	case "fig5":
		return render(func() (renderer, error) { r, err := experiments.Fig5(opts); return r, err })
	case "fig6":
		return render(func() (renderer, error) {
			r, err := experiments.Throttle(experiments.ThrottlePower)
			return r, err
		})
	case "fig7a":
		return render(func() (renderer, error) {
			r, err := experiments.Throttle(experiments.ThrottlePerf)
			return r, err
		})
	case "fig7b":
		return render(func() (renderer, error) {
			r, err := experiments.Throttle(experiments.ThrottleEff)
			return r, err
		})
	case "scenarios":
		return render(func() (renderer, error) { r, err := experiments.Scenarios(); return r, err })
	case "dp":
		return render(func() (renderer, error) { r, err := experiments.DoublePrecision(); return r, err })
	case "network":
		return render(func() (renderer, error) { r, err := experiments.Network(); return r, err })
	case "dvfs":
		return render(func() (renderer, error) { r, err := experiments.DVFSAnalysis(); return r, err })
	case "pi1":
		return render(func() (renderer, error) { r, err := experiments.Pi1(); return r, err })
	case "mountain":
		return render(func() (renderer, error) { r, err := experiments.Mountain(plat, opts); return r, err })
	case "export":
		return exportAll(opts, w)
	case "scaling":
		return render(func() (renderer, error) { r, err := experiments.Scaling(); return r, err })
	case "experiments-md":
		return experiments.WriteExperimentsMD(w, opts)
	case "fit":
		return fitOne(opts, plat, w)
	case "sweep":
		return sweepOne(plat, w)
	case "roofline":
		return roofline(plat, w)
	case "list":
		return list(w)
	case "all":
		for _, c := range []string{"table1", "fig1", "fig4", "fig5", "fig6", "fig7a", "fig7b",
			"scenarios", "dp", "network", "dvfs", "pi1"} {
			if _, err := fmt.Fprintf(w, "==================== %s ====================\n", c); err != nil {
				return err
			}
			if err := Run(c, opts, plat, w); err != nil {
				return err
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown command %q", ErrUsage, cmd)
	}
}

func fitOne(opts experiments.Options, id machine.ID, w io.Writer) error {
	plat, err := machine.ByID(id)
	if err != nil {
		return err
	}
	return fitPlatform(opts, plat, w)
}

func fitPlatform(opts experiments.Options, plat *machine.Platform, w io.Writer) error {
	suite, err := microbench.Run(plat, opts.SuiteConfig(), sim.Options{Seed: opts.Seed, Noiseless: opts.Noiseless})
	if err != nil {
		return err
	}
	pf, err := fit.Platform(suite, fit.Options{Seed: opts.Seed})
	if err != nil {
		return err
	}
	return renderFit(plat, pf, w)
}

// renderFit prints the fitted-vs-published constants table for one
// platform fit (shared by the fit and measure commands).
func renderFit(plat *machine.Platform, pf *fit.PlatformFit, w io.Writer) error {
	tb := &report.Table{
		Title:   fmt.Sprintf("%s: fitted constants (published Table I values in parentheses)", plat.Name),
		Headers: []string{"parameter", "fitted", "published"},
	}
	tb.AddRow("peak flop/s", units.FormatFlopRate(pf.Params.PeakFlopRate()),
		units.FormatFlopRate(plat.Sustained.SingleRate))
	tb.AddRow("mem bandwidth", units.FormatByteRate(pf.Params.PeakByteRate()),
		units.FormatByteRate(plat.Sustained.MemBW))
	tb.AddRow("eps_s", units.FormatEnergyPerFlop(pf.Params.EpsFlop),
		units.FormatEnergyPerFlop(plat.Single.EpsFlop))
	if plat.SupportsDouble() {
		tb.AddRow("eps_d", units.FormatEnergyPerFlop(pf.DoubleEps),
			units.FormatEnergyPerFlop(plat.DoubleEps))
	}
	tb.AddRow("eps_mem", units.FormatEnergyPerByte(pf.Params.EpsMem),
		units.FormatEnergyPerByte(plat.Single.EpsMem))
	tb.AddRow("pi_1", units.FormatPower(pf.Params.Pi1), units.FormatPower(plat.Single.Pi1))
	tb.AddRow("delta_pi", units.FormatPower(pf.Params.DeltaPi), units.FormatPower(plat.Single.DeltaPi))
	if pf.L1 != nil && plat.L1 != nil {
		tb.AddRow("eps_L1", units.FormatEnergyPerByte(pf.L1.Eps), units.FormatEnergyPerByte(plat.L1.Eps))
	}
	if pf.L2 != nil && plat.L2 != nil {
		tb.AddRow("eps_L2", units.FormatEnergyPerByte(pf.L2.Eps), units.FormatEnergyPerByte(plat.L2.Eps))
	}
	if pf.Rand != nil && plat.Rand != nil {
		tb.AddRow("eps_rand", units.FormatEnergyPerAccess(pf.Rand.Eps),
			units.FormatEnergyPerAccess(plat.Rand.Eps))
	}
	if _, err := fmt.Fprintln(w, tb.Render()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "fit RMS log-residual: %.4f\n", pf.Residual)
	return err
}

// loadPlatform resolves the platform under measurement: a JSON file when
// path is set, otherwise the Table I entry for id.
func loadPlatform(path string, id machine.ID) (*machine.Platform, error) {
	if path == "" {
		return machine.ByID(id)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	plat, err := machine.FromJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return plat, err
}

// measurePlatform runs the fault-tolerant measurement pipeline on one
// platform — repeat measurements with retry under the requested fault
// profile, trace sanitization, outlier-trimmed aggregation — then fits
// the model constants and reports per-kernel quality plus the overall
// degradation grade. With traceOut set, the whole pipeline runs under a
// root span and the finished span tree is written there as NDJSON.
func measurePlatform(opts experiments.Options, plat *machine.Platform, profile string,
	faultSeed uint64, traceOut string, w io.Writer) error {
	prof, err := faults.ByName(profile)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrUsage, err)
	}
	ctx := context.Background()
	var tracer *obs.Tracer
	var tf *os.File
	if traceOut != "" {
		tf, err = os.Create(traceOut)
		if err != nil {
			return err
		}
		tracer = obs.NewTracer(tf)
		ctx = obs.WithTracer(ctx, tracer)
	}
	// The pipeline runs in a closure so the root span has ended (and
	// exported) before the trace file is closed and summarized.
	err = func() error {
		ctx, span := obs.Start(ctx, "archline.measure",
			obs.String("platform", string(plat.ID)), obs.String("profile", prof.Name))
		defer span.End()
		simOpts := sim.Options{Seed: opts.Seed, Noiseless: opts.Noiseless}
		if prof.Enabled() {
			simOpts.Faults = faults.New(prof, faultSeed)
		}
		rc := microbench.RobustConfig{}
		if opts.Replicates > 1 {
			rc.Repeats = opts.Replicates
		}
		res, rs, err := microbench.RunRobustContext(ctx, plat, opts.SuiteConfig(), simOpts, rc)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s: robust measurement, fault profile %s (fault seed %d)\n\n",
			plat.Name, prof.Name, faultSeed); err != nil {
			return err
		}
		qt := &report.Table{
			Title:   "per-kernel measurement quality",
			Headers: []string{"kernel", "intensity", "power", "grade", "gaps", "spikes", "stuck", "repaired"},
		}
		for _, m := range res.Measurements {
			q := m.Quality
			qt.AddRow(m.Kernel, units.FormatIntensity(m.Intensity), units.FormatPower(m.AvgPower),
				q.Grade.String(), strconv.Itoa(q.GapsFilled), strconv.Itoa(q.SpikesRemoved),
				strconv.Itoa(q.StuckRepaired), fmt.Sprintf("%.1f%%", 100*q.RepairedFrac))
		}
		if _, err := fmt.Fprintln(w, qt.Render()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "suite: %s\n\n", rs); err != nil {
			return err
		}
		pf, err := fit.PlatformContext(ctx, res, fit.Options{Seed: opts.Seed})
		if err != nil {
			return err
		}
		if err := renderFit(plat, pf, w); err != nil {
			return err
		}
		robust := "no"
		if pf.RobustApplied {
			robust = "yes (Huber re-fit)"
		}
		_, err = fmt.Fprintf(w, "degradation grade: %s (contamination %.1f%%, robust re-fit: %s)\n",
			pf.Grade, 100*pf.Contamination, robust)
		return err
	}()
	if tf != nil {
		if cerr := tf.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			st := tracer.Stats()
			_, err = fmt.Fprintf(w, "trace: %d spans, %d events -> %s\n",
				st.Ended, st.Events, traceOut)
		}
	}
	return err
}

func sweepOne(id machine.ID, w io.Writer) error {
	plat, err := machine.ByID(id)
	if err != nil {
		return err
	}
	return sweepPlatform(plat, w)
}

func sweepPlatform(plat *machine.Platform, w io.Writer) error {
	p := plat.Single
	if _, err := fmt.Fprintf(w, "%s model sweep\n%s\n\n", plat.Name, report.PanelHeader(plat)); err != nil {
		return err
	}
	tb := &report.Table{
		Headers: []string{"intensity", "regime", "flop/s", "flop/J", "power", "throttle"},
	}
	for _, i := range model.LogSpace(0.125, 512, 25) {
		tb.AddRow(
			units.FormatIntensity(i),
			p.RegimeAt(i).Letter(),
			units.FormatFlopRate(p.FlopRateAt(i)),
			units.FormatFlopsPerJoule(p.FlopsPerJouleAt(i)),
			units.FormatPower(p.AvgPowerAt(i)),
			fmt.Sprintf("%.2fx", p.ThrottleFactor(i)),
		)
	}
	_, err := fmt.Fprintln(w, tb.Render())
	return err
}

// roofline draws the platform's time roofline (flop/s vs intensity) and
// energy roofline (flop/J vs intensity) as ASCII plots — the paper's two
// core curves side by side.
func roofline(id machine.ID, w io.Writer) error {
	plat, err := machine.ByID(id)
	if err != nil {
		return err
	}
	return rooflinePlatform(plat, w)
}

func rooflinePlatform(plat *machine.Platform, w io.Writer) error {
	p := plat.Single
	grid := model.LogSpace(0.125, 512, 49)
	timeSeries := report.PlotSeries{Name: "flop/s (capped)", Marker: '*'}
	timeFree := report.PlotSeries{Name: "flop/s (uncapped)", Marker: '.'}
	energySeries := report.PlotSeries{Name: "flop/J", Marker: 'o'}
	for _, i := range grid {
		x := i.Ratio()
		timeSeries.X = append(timeSeries.X, x)
		timeSeries.Y = append(timeSeries.Y, float64(p.FlopRateAt(i)))
		timeFree.X = append(timeFree.X, x)
		timeFree.Y = append(timeFree.Y, float64(p.FlopRateAtUncapped(i)))
		energySeries.X = append(energySeries.X, x)
		energySeries.Y = append(energySeries.Y, float64(p.FlopsPerJouleAt(i)))
	}
	if _, err := fmt.Fprintf(w, "%s rooflines\n%s\n\n", plat.Name, report.PanelHeader(plat)); err != nil {
		return err
	}
	tp := &report.Plot{
		Title:  "time roofline",
		XLabel: "intensity (flop:Byte)",
		LogY:   true, Height: 14,
		Series: []report.PlotSeries{timeSeries, timeFree},
	}
	if _, err := fmt.Fprintln(w, tp.Render()); err != nil {
		return err
	}
	ep := &report.Plot{
		Title:  "energy roofline",
		XLabel: "intensity (flop:Byte)",
		LogY:   true, Height: 14,
		Series: []report.PlotSeries{energySeries},
	}
	if _, err := fmt.Fprintln(w, ep.Render()); err != nil {
		return err
	}
	var err error
	if lo, hi, ok := p.CapBindingRange(); ok {
		_, err = fmt.Fprintf(w, "power cap binds for I in [%s, %s]\n",
			units.FormatIntensity(lo), units.FormatIntensity(hi))
	} else {
		_, err = fmt.Fprintln(w, "power cap never binds on this platform")
	}
	return err
}

func list(w io.Writer) error {
	tb := &report.Table{
		Title: "Table I platforms",
		Headers: []string{"id", "name", "processor", "uarch", "class",
			"peak SP", "peak bw", "peak flop/J"},
	}
	for _, p := range machine.All() {
		tb.AddRow(string(p.ID), p.Name, p.Processor, p.Microarch, p.Class.String(),
			units.FormatFlopRate(units.FlopRate(p.Vendor.Single)),
			units.FormatByteRate(units.ByteRate(p.Vendor.MemBW)),
			units.FormatFlopsPerJoule(p.Single.PeakFlopsPerJoule()))
	}
	if _, err := fmt.Fprintln(w, tb.Render()); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, `run "archline fit -platform <id>" to fit one platform, "archline all" for every figure`)
	return err
}

// exportAll runs the full microbenchmark suite on every platform and
// streams the pooled measurements as one CSV — the reproduction's
// analogue of the paper's publicly released measurement data.
func exportAll(opts experiments.Options, w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"platform", "kernel", "precision", "pattern", "level",
		"W_flops", "Q_bytes", "accesses", "intensity", "time_s", "energy_J", "power_W"}
	if err := cw.Write(header); err != nil {
		return err
	}
	cfg := opts.SuiteConfig()
	for _, plat := range machine.All() {
		res, err := microbench.Run(plat, cfg, sim.Options{Seed: opts.Seed, Noiseless: opts.Noiseless})
		if err != nil {
			return err
		}
		for _, m := range res.Measurements {
			rec := []string{
				string(m.Platform), m.Kernel, m.Precision.String(), m.Pattern.String(),
				m.Level.String(),
				strconv.FormatFloat(m.W.Count(), 'g', -1, 64),
				strconv.FormatFloat(m.Q.Count(), 'g', -1, 64),
				strconv.FormatFloat(m.Accesses.Count(), 'g', -1, 64),
				strconv.FormatFloat(m.Intensity.Ratio(), 'g', -1, 64),
				strconv.FormatFloat(m.Time.Seconds(), 'g', -1, 64),
				strconv.FormatFloat(m.Energy.Joules(), 'g', -1, 64),
				strconv.FormatFloat(m.AvgPower.Watts(), 'g', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

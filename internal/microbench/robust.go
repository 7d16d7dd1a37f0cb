package microbench

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"archline/internal/faults"
	"archline/internal/machine"
	"archline/internal/obs"
	"archline/internal/pool"
	"archline/internal/powermon"
	"archline/internal/sim"
	"archline/internal/stats"
	"archline/internal/units"
)

// RobustConfig tunes the fault-tolerant suite runner.
type RobustConfig struct {
	// Repeats is how many times each kernel is measured. Default 3.
	Repeats int
	// Sleep receives each backoff delay. Nil means no wait: the delay
	// is kept on the simulated clock, as the fault.retry event's
	// delay_s, because a simulated disconnect episode ends after a
	// count of failed attempts, not after any wall time (see
	// faults.RetryNotify). A non-nil Sleep is never called
	// concurrently: the runner serializes the calls, so a stub may
	// record into plain variables, and it must return promptly because
	// the other workers' retries queue behind it. Tests and benchmarks
	// record the waiting time through it.
	Sleep func(time.Duration)
}

func (rc RobustConfig) withDefaults() RobustConfig {
	if rc.Repeats < 1 {
		rc.Repeats = 3
	}
	return rc
}

// RobustStats summarizes what the robust runner had to absorb.
type RobustStats struct {
	// Retries counts transient errors retried across the whole suite.
	Retries int
	// Discarded counts repeat measurements dropped as GradeC when a
	// cleaner repeat existed.
	Discarded int
	// Repeats is the per-kernel repeat count used.
	Repeats int
	// WorstGrade is the worst quality grade among the measurements that
	// were kept.
	WorstGrade powermon.Grade
}

// String renders the stats compactly.
func (rs RobustStats) String() string {
	return fmt.Sprintf("repeats %d, retries %d, discarded %d, worst grade %s",
		rs.Repeats, rs.Retries, rs.Discarded, rs.WorstGrade)
}

// repeatSuffix tags a repeat's kernel name so each repeat draws its own
// noise and fault schedule.
func repeatSuffix(rep int) string { return fmt.Sprintf("@r%d", rep) }

// RunRobustContext builds and executes the suite the way a careful lab
// does on flaky instrumentation: every kernel is measured Repeats times
// (each repeat under its own noise and fault schedule), transient meter
// errors are retried on faults.RetryNotify's fixed schedule of capped
// jittered backoff, traces are sanitized (opts.Sanitize is forced on),
// GradeC repeats are discarded when a cleaner repeat exists, and the
// surviving repeats are aggregated component-wise by median — the
// outlier-trimmed estimate a single throttled or corrupted run cannot
// drag. The aggregated Result is shaped exactly like Run's, so the
// fitting pipeline consumes it unchanged.
//
// It runs under a microbench.suite span: each kernel gets a child span
// carrying retry, lost-repeat, and discard events, and the suite span
// closes with the aggregate robustness stats. Without a tracer on ctx
// the spans are no-ops.
//
// Like Run, it measures the kernels concurrently on pool.Map
// (Config.Workers; zero means NumCPU), so their CPU work spreads over
// the cores. One pool item is one kernel: its repeats and their
// retries stay in order inside the item, because the fault injector's
// per-label disconnect countdown and each repeat's jitter stream
// follow that order. Every noise, fault and jitter stream keys on
// (seed, platform, kernel, repeat), so the Result and RobustStats are
// bit-identical at any worker count, and each kernel's span subtree is
// held (obs.Hold) and released in suite order, so the trace is too.
func RunRobustContext(ctx context.Context, plat *machine.Platform, cfg Config,
	opts sim.Options, rc RobustConfig) (*Result, *RobustStats, error) {
	rc = rc.withDefaults()
	if sleep := rc.Sleep; sleep != nil {
		// Holding mu across the caller's Sleep is the point: the
		// workers' retries take turns (see RobustConfig.Sleep).
		var mu sync.Mutex
		rc.Sleep = func(d time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			sleep(d)
		}
	}
	opts.Sanitize = true
	ctx, span := obs.Start(ctx, "microbench.suite",
		obs.String("platform", string(plat.ID)), obs.Int("repeats", rc.Repeats))
	defer span.End()
	kernels, err := BuildSuite(plat, cfg)
	if err != nil {
		return nil, nil, err
	}
	// The simulator itself never blocks, so cancellation (an async job
	// being deleted, a drain deadline) is honoured here and before each
	// repeat inside the pool — the suite stops promptly instead of
	// grinding through the remaining measurements.
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("microbench: suite on %s: %w", plat.Name, err)
	}
	s := sim.New(plat, opts)
	runs, errs := pool.Map(kernels, cfg.Workers, func(_ int, k sim.Kernel) (kernelRun, error) {
		kctx, held := obs.Hold(ctx)
		run := kernelRun{held: held}
		var err error
		run.m, err = measureKernelRobust(kctx, s, k, rc, &run.rs, opts.Seed)
		return run, err
	})
	res := &Result{Platform: plat, Measurements: make([]sim.Measurement, len(runs))}
	rs := &RobustStats{Repeats: rc.Repeats}
	// Every subtree is released in suite order, a failed kernel's too,
	// so the trace reads as a serial run's and no span is lost.
	for i, run := range runs {
		run.held.Release()
		res.Measurements[i] = run.m
		rs.Retries += run.rs.Retries
		rs.Discarded += run.rs.Discarded
		if run.rs.WorstGrade > rs.WorstGrade {
			rs.WorstGrade = run.rs.WorstGrade
		}
	}
	if i, err := pool.FirstError(errs); err != nil {
		return nil, nil, fmt.Errorf("microbench: %s on %s: %w", kernels[i].Name, plat.Name, err)
	}
	// The idle repeats share one fault label, so they stay serial.
	idle, err := measureIdleRobust(ctx, s, rc, rs, opts.Seed, plat)
	if err != nil {
		return nil, nil, err
	}
	res.IdlePower = idle
	span.SetAttr(obs.Int("kernels", len(res.Measurements)), obs.Int("retries", rs.Retries),
		obs.Int("discarded", rs.Discarded), obs.String("worst_grade", rs.WorstGrade.String()))
	return res, rs, nil
}

// kernelRun is one pool item of the robust suite: the kernel's
// aggregated measurement, the stats of its own repeats, and its held
// span subtree.
type kernelRun struct {
	m    sim.Measurement
	rs   RobustStats
	held *obs.Held
}

// measureKernelRobust measures one kernel Repeats times with retry,
// discards contaminated repeats, and aggregates the survivors.
func measureKernelRobust(ctx context.Context, s *sim.Simulator, k sim.Kernel,
	rc RobustConfig, rs *RobustStats, seed uint64) (sim.Measurement, error) {
	ctx, span := obs.Start(ctx, "microbench.kernel", obs.String("kernel", k.Name))
	defer span.End()
	var reps []sim.Measurement
	var lastErr error
	for rep := 0; rep < rc.Repeats; rep++ {
		if err := ctx.Err(); err != nil {
			return sim.Measurement{}, err
		}
		rk := k
		rk.Name = k.Name + repeatSuffix(rep)
		rng := stats.NewStream(seed^0x5e77, string(s.Platform().ID)+"/retry/"+rk.Name)
		var m sim.Measurement
		err := retryRepeat(span, rk.Name, rng, rc.Sleep, rs, func() error {
			var merr error
			m, merr = s.MeasureContext(ctx, rk)
			return merr
		})
		if err != nil {
			lastErr = err
			continue // this repeat is lost; others may still land
		}
		m.Kernel = strings.TrimSuffix(m.Kernel, repeatSuffix(rep))
		reps = append(reps, m)
	}
	if len(reps) == 0 {
		return sim.Measurement{}, fmt.Errorf("all %d repeats failed: %w", rc.Repeats, lastErr)
	}
	kept := discardContaminated(reps)
	if d := len(reps) - len(kept); d > 0 {
		span.Event("repeat.discarded", obs.Int("count", d))
	}
	rs.Discarded += len(reps) - len(kept)
	agg := aggregate(kept)
	if agg.Quality.Grade > rs.WorstGrade {
		rs.WorstGrade = agg.Quality.Grade
	}
	span.SetAttr(obs.String("grade", agg.Quality.Grade.String()), obs.Int("kept", len(kept)))
	return agg, nil
}

// retryRepeat measures one repeat of the named kernel through
// faults.RetryNotify, jittering its delays from rng. Each retry is a
// fault.retry event on span and a repeat that runs out of attempts a
// repeat.lost event; the retries add to rs.
func retryRepeat(span *obs.Span, kernel string, rng *stats.Stream, sleep func(time.Duration),
	rs *RobustStats, measure func() error) error {
	retries, err := faults.RetryNotify(sleep, rng,
		func(attempt int, delay time.Duration, rerr error) {
			span.Event("fault.retry", obs.String("kernel", kernel), obs.Int("attempt", attempt),
				obs.Float("delay_s", delay.Seconds()), obs.String("error", rerr.Error()))
		}, measure)
	rs.Retries += retries
	if err != nil {
		span.Event("repeat.lost", obs.String("kernel", kernel), obs.String("error", err.Error()))
	}
	return err
}

// discardContaminated drops GradeC repeats as long as at least one
// cleaner repeat survives; with nothing cleaner available the
// contaminated repeats are all we have, and the grade says so.
func discardContaminated(reps []sim.Measurement) []sim.Measurement {
	var kept []sim.Measurement
	for _, m := range reps {
		if m.Quality.Grade < powermon.GradeC {
			kept = append(kept, m)
		}
	}
	if len(kept) == 0 {
		return reps
	}
	return kept
}

// aggregate folds repeat measurements into one by component-wise median
// on the measured quantities. Ground-truth fields (W, Q, level, ...)
// are identical across repeats and taken from the first.
func aggregate(reps []sim.Measurement) sim.Measurement {
	out := reps[0]
	if len(reps) == 1 {
		return out
	}
	times := make([]float64, len(reps))
	energies := make([]float64, len(reps))
	powers := make([]float64, len(reps))
	for i, m := range reps {
		times[i] = m.Time.Seconds()
		energies[i] = m.Energy.Joules()
		powers[i] = m.AvgPower.Watts()
		if i > 0 {
			out.Quality = out.Quality.Merge(m.Quality)
		}
	}
	out.Time = units.Time(stats.Median(times))
	out.Energy = units.Energy(stats.Median(energies))
	out.AvgPower = units.Power(stats.Median(powers))
	return out
}

// measureIdleRobust records the idle baseline with retry and takes the
// median across repeats. The repeats are identical: MeasureIdleContext
// draws every one from the same <platform>/idle noise stream and fault
// label, so all Repeats readings carry the same bits and the median is
// any one of them; only their retries differ. Giving each repeat its
// own label would change the fitted constants (ROADMAP lists it). The
// shared label's disconnect countdown also keeps the repeats serial.
func measureIdleRobust(ctx context.Context, s *sim.Simulator, rc RobustConfig,
	rs *RobustStats, seed uint64, plat *machine.Platform) (units.Power, error) {
	ctx, span := obs.Start(ctx, "microbench.idle", obs.Int("repeats", rc.Repeats))
	defer span.End()
	var idles []float64
	var lastErr error
	for rep := 0; rep < rc.Repeats; rep++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		rng := stats.NewStream(seed^0x5e77, string(plat.ID)+"/retry/idle"+repeatSuffix(rep))
		var p units.Power
		err := retryRepeat(span, "idle", rng, rc.Sleep, rs, func() error {
			var merr error
			p, merr = s.MeasureIdleContext(ctx, 1)
			return merr
		})
		if err != nil {
			lastErr = err
			continue
		}
		idles = append(idles, p.Watts())
	}
	if len(idles) == 0 {
		return 0, fmt.Errorf("microbench: idle measurement failed on %s: %w", plat.Name, lastErr)
	}
	return units.Power(stats.Median(idles)), nil
}

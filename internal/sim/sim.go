// Package sim simulates the execution of microbenchmark kernels on the
// paper's twelve platforms.
//
// The physical machines are unavailable, so this package stands in for
// them: given a kernel specification (flops per word, precision, working
// set, access pattern) and a platform, it computes the run's "true" time
// and power draw from the platform's Table I ground-truth physics — the
// same first-principles behaviour the paper's model claims governs the
// hardware: maximal overlap of flops and memory traffic, throughput
// limits per memory level, and dynamic-power throttling under the usable
// power cap. On top of that physics it layers what made the paper's
// measurements interesting: multiplicative timing noise, platform quirks
// (the NUC GPU's OS-interference variance and cap overshoot, the Arndale
// GPU's utilisation-dependent efficiency), and a PowerMon-style sampled
// power measurement (internal/powermon).
//
// The output of a simulated run is exactly what the paper's lab setup
// produced: a (W, Q, time, energy, average power) tuple per kernel, which
// the fitting (internal/fit) and validation (internal/experiments)
// pipelines consume unchanged.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"archline/internal/faults"
	"archline/internal/machine"
	"archline/internal/model"
	"archline/internal/obs"
	"archline/internal/powermon"
	"archline/internal/stats"
	"archline/internal/units"
)

// Precision selects single or double floating point.
type Precision int

// Precisions.
const (
	Single Precision = iota
	Double
)

// String names the precision.
func (p Precision) String() string {
	if p == Double {
		return "double"
	}
	return "single"
}

// Bytes is the word size of the precision.
func (p Precision) Bytes() units.Bytes {
	if p == Double {
		return 8
	}
	return 4
}

// Pattern selects the access pattern of a kernel.
type Pattern int

// Patterns.
const (
	// StreamPattern reads the working set with unit stride, the pattern
	// of the intensity and cache microbenchmarks.
	StreamPattern Pattern = iota
	// ChasePattern follows a random pointer cycle through the working
	// set, the paper's random-access microbenchmark.
	ChasePattern
	// StridedPattern reads every StrideBytes-th word. Strides at or
	// beyond the line size waste the rest of each transferred line —
	// exactly the traffic the paper avoids by "directing" the prefetcher
	// "into prefetching only the data that will be used".
	StridedPattern
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case ChasePattern:
		return "chase"
	case StridedPattern:
		return "strided"
	default:
		return "stream"
	}
}

// Kernel is a microbenchmark specification: the simulated analogue of
// the paper's hand-tuned assembly/CUDA/OpenCL kernels.
type Kernel struct {
	Name         string
	Precision    Precision
	Pattern      Pattern
	FlopsPerWord float64     // flops executed per word loaded (intensity knob)
	WorkingSet   units.Bytes // bytes of data touched per pass
	Passes       int         // passes over the working set
	// StrideBytes is the distance between consecutive accesses for
	// StridedPattern kernels (ignored otherwise).
	StrideBytes units.Bytes
}

// Validate checks the kernel specification.
func (k Kernel) Validate() error {
	if k.WorkingSet < k.Precision.Bytes() {
		return fmt.Errorf("sim: working set %v below one word", k.WorkingSet)
	}
	if k.Passes < 1 {
		return errors.New("sim: passes must be >= 1")
	}
	if k.FlopsPerWord < 0 || math.IsNaN(k.FlopsPerWord) || math.IsInf(k.FlopsPerWord, 0) {
		return errors.New("sim: flops per word must be finite and non-negative")
	}
	if k.Pattern == StridedPattern && k.StrideBytes < k.Precision.Bytes() {
		return errors.New("sim: strided kernels need a stride of at least one word")
	}
	return nil
}

// Intensity is the kernel's nominal operational intensity in flop:Byte,
// assuming all traffic comes from the target level.
func (k Kernel) Intensity() units.Intensity {
	return units.Intensity(k.FlopsPerWord / k.Precision.Bytes().Count())
}

// Work returns the flop count the kernel executes.
func (k Kernel) Work() units.Flops {
	words := k.WorkingSet.Count() / k.Precision.Bytes().Count()
	return units.Flops(k.FlopsPerWord * words * float64(k.Passes))
}

// RunResult is the ground-truth outcome of one simulated run, before the
// measurement layer samples it.
type RunResult struct {
	Kernel   Kernel
	Platform machine.ID
	Level    model.MemLevel // the level that served the traffic
	W        units.Flops
	Q        units.Bytes    // bytes served by Level
	Accesses units.Accesses // nonzero for chase kernels
	TrueTime units.Time
	TrueDyn  units.Power // true dynamic (above-constant) power during the run
	// Signal is the instantaneous device power over the run, for the
	// power meter to sample.
	Signal powermon.Signal
}

// Measurement is what the lab bench records for one run: the tuple the
// fitting pipeline consumes. Time comes from the host clock (noisy),
// power and energy from the PowerMon trace.
type Measurement struct {
	Platform  machine.ID
	Kernel    string
	Precision Precision
	Pattern   Pattern
	Level     model.MemLevel
	W         units.Flops
	Q         units.Bytes
	Accesses  units.Accesses // random accesses performed (chase kernels)
	Intensity units.Intensity
	Time      units.Time
	Energy    units.Energy
	AvgPower  units.Power
	// Quality reports what trace sanitization found and repaired; the
	// zero value means the trace was taken at face value.
	Quality powermon.Quality
}

// Options tune the simulator.
type Options struct {
	// Seed drives all noise streams; runs are deterministic per seed.
	Seed uint64
	// Noiseless disables measurement noise and quirk variance (quirk
	// *bias* remains: it is physics, not noise).
	Noiseless bool
	// Faults, when non-nil, injects the measurement pathologies of its
	// profile: corrupted traces, thermal-throttle events, and transient
	// meter disconnects (surfaced as powermon.ErrDisconnect).
	Faults *faults.Injector
	// Sanitize runs powermon trace sanitization on every recording and
	// reports the result in Measurement.Quality. It is a no-op on clean
	// traces and is skipped entirely for noiseless runs (a noiseless
	// constant trace must never be "repaired").
	Sanitize bool
}

// Simulator runs kernels on one platform.
type Simulator struct {
	plat  *machine.Platform
	opts  Options
	meter *powermon.Meter
}

// New builds a simulator for the platform.
func New(p *machine.Platform, opts Options) *Simulator {
	return &Simulator{plat: p, opts: opts, meter: MeterFor(p)}
}

// MeterFor selects the paper's fig. 3 probe placement for a platform:
// PCIe devices get the interposer + PCIe-connector setup, desktop CPUs
// the CPU+motherboard setup, and boards the DC-brick setup.
func MeterFor(p *machine.Platform) *powermon.Meter {
	switch p.Class {
	case machine.ClassCoprocessor:
		return powermon.PCIeGPUMeter()
	case machine.ClassDesktop:
		return powermon.CPUSystemMeter()
	default:
		return powermon.MobileBoardMeter()
	}
}

// Platform returns the platform under simulation.
func (s *Simulator) Platform() *machine.Platform { return s.plat }

// groundParams selects the true physics parameters for the kernel: the
// platform's fitted constants with the memory side swapped to the level
// that serves the working set.
func (s *Simulator) groundParams(k Kernel) (model.Params, model.MemLevel, error) {
	var base model.Params
	switch k.Precision {
	case Single:
		base = s.plat.Single
	case Double:
		d, err := s.plat.DoubleParams()
		if err != nil {
			return model.Params{}, 0, err
		}
		base = d
	default:
		return model.Params{}, 0, fmt.Errorf("sim: unknown precision %d", k.Precision)
	}
	level := s.classifyLevel(k)
	switch level {
	case model.LevelL1:
		base.TauMem = s.plat.L1.Tau
		base.EpsMem = s.plat.L1.Eps
	case model.LevelL2:
		base.TauMem = s.plat.L2.Tau
		base.EpsMem = s.plat.L2.Eps
	}
	return base, level, nil
}

// classifyLevel decides which memory level serves the kernel's working
// set by capacity: the first described level whose size holds it, the
// way the paper sizes each cache microbenchmark to fit its target level.
func (s *Simulator) classifyLevel(k Kernel) model.MemLevel {
	if s.plat.L1 != nil && k.WorkingSet <= s.plat.L1Size {
		return model.LevelL1
	}
	if s.plat.L2 != nil && k.WorkingSet <= s.plat.L2Size {
		return model.LevelL2
	}
	return model.LevelDRAM
}

// Run executes the kernel's ground-truth physics and returns the true
// time and the power signal for measurement.
func (s *Simulator) Run(k Kernel) (RunResult, error) {
	if err := k.Validate(); err != nil {
		return RunResult{}, err
	}
	if k.Pattern == ChasePattern {
		return s.runChase(k)
	}
	return s.runStream(k)
}

// strideFactors returns, for a strided kernel, the fraction of touched
// words that are useful and the transferred-to-useful byte inflation:
// strides within a line still consume the whole working set exactly once
// (streaming), while strides at or beyond the line size transfer a full
// line per useful word.
func (s *Simulator) strideFactors(k Kernel) (usefulWords float64, transferred units.Bytes) {
	stride := k.StrideBytes.Count()
	line := s.plat.CacheLine.Count()
	usefulWords = math.Floor(k.WorkingSet.Count() / stride)
	if usefulWords < 1 {
		usefulWords = 1
	}
	if stride < line {
		// Every transferred line still gets fully consumed across
		// successive accesses: effectively streaming traffic.
		transferred = k.WorkingSet
	} else {
		transferred = units.Bytes(usefulWords * line)
	}
	return usefulWords, transferred
}

func (s *Simulator) runStream(k Kernel) (RunResult, error) {
	params, level, err := s.groundParams(k)
	if err != nil {
		return RunResult{}, err
	}
	w := k.Work()
	q := units.Bytes(k.WorkingSet.Count() * float64(k.Passes))
	if k.Pattern == StridedPattern {
		usefulWords, transferred := s.strideFactors(k)
		// Work only covers the touched words; traffic covers the lines
		// actually moved.
		w = units.Flops(k.FlopsPerWord * usefulWords * float64(k.Passes))
		q = units.Bytes(transferred.Count() * float64(k.Passes))
	}

	trueTime := params.Time(w, q).Seconds()
	dynEnergy := w.Count()*float64(params.EpsFlop) + q.Count()*float64(params.EpsMem)

	// Quirks change the physics before noise is added.
	trueTime, dynEnergy = s.applyQuirks(k, params, trueTime, dynEnergy)

	return s.finish(k, level, w, q, 0, trueTime, dynEnergy)
}

func (s *Simulator) runChase(k Kernel) (RunResult, error) {
	if s.plat.Rand == nil {
		return RunResult{}, fmt.Errorf("sim: %s has no random-access data", s.plat.Name)
	}
	if k.Precision == Double && !s.plat.SupportsDouble() {
		return RunResult{}, fmt.Errorf("sim: %s does not support double", s.plat.Name)
	}
	r := *s.plat.Rand
	lines := math.Floor(k.WorkingSet.Count() / r.Line.Count())
	if lines < 1 {
		return RunResult{}, errors.New("sim: working set below one cache line")
	}
	n := units.Accesses(lines * float64(k.Passes))
	t, e, err := r.TimeEnergy(n, s.plat.Single)
	if err != nil {
		return RunResult{}, err
	}
	dynEnergy := e.Joules() - s.plat.Single.Pi1.Watts()*t.Seconds()
	//archlint:ignore dimcheck r.Line is the line size in bytes per access, so the access count cancels
	q := units.Bytes(n.Count() * r.Line.Count())
	res, err := s.finish(k, model.LevelRand, 0, q, n, t.Seconds(), dynEnergy)
	return res, err
}

// applyQuirks adjusts true time and dynamic energy for the platform's
// documented second-order behaviours.
func (s *Simulator) applyQuirks(k Kernel, params model.Params, trueTime, dynEnergy float64) (float64, float64) {
	i := k.Intensity().Ratio()
	if s.plat.HasQuirk(machine.QuirkUtilizationScaling) && i > 0 {
		// Arndale GPU: active energy-efficiency scaling with utilisation.
		// Near the balance point the hardware is measurably *more*
		// efficient than the constant-cost model, so the capped model
		// overpredicts power there by up to ~12% (the paper reports
		// mispredictions "always less than 15%" at mid-range intensities).
		// The run still proceeds at the throttled speed (the constant-cost
		// cap model predicts performance well there), but draws less
		// dynamic power than the cap while doing so, so measured power at
		// mid intensities sits below the model's flat cap line, exactly
		// the fig. 5 Arndale-GPU panel shape.
		bt := params.TimeBalance().Ratio()
		x := math.Log(i / bt)
		dynEnergy *= 1 - 0.12*math.Exp(-x*x/2)
	}
	// QuirkOSInterference (NUC GPU) is pure measurement variance: it is
	// applied in finish() as a widened noise sigma, not as a physics
	// change. The platform's published 268 Gflop/s "sustained peak" above
	// what its 17.7 W fitted cap admits is consistent with that
	// variance — the paper itself flags the NUC GPU's capping behaviour
	// as inaccurate and attributes it to OS interference.
	return trueTime, dynEnergy
}

// finish layers noise, builds the power signal, and assembles the result.
func (s *Simulator) finish(k Kernel, level model.MemLevel, w units.Flops, q units.Bytes,
	acc units.Accesses, trueTime, dynEnergy float64) (RunResult, error) {
	if trueTime <= 0 || math.IsInf(trueTime, 0) || math.IsNaN(trueTime) {
		return RunResult{}, fmt.Errorf("sim: degenerate run time %v", trueTime)
	}
	rng := stats.NewStream(s.opts.Seed, string(s.plat.ID)+"/"+k.Name)
	if !s.opts.Noiseless {
		sigma := 0.008
		if s.plat.HasQuirk(machine.QuirkOSInterference) {
			sigma = 0.05 // OS interference: much larger run-to-run variance
		}
		trueTime *= rng.LogNormalFactor(sigma)
	}
	dynPower := dynEnergy / trueTime
	pi1 := s.plat.Single.Pi1.Watts()

	// The power signal: constant power plus dynamic power, with slow
	// utilisation wiggle so traces are not perfectly flat.
	wiggleSeed := rng.Float64() * 2 * math.Pi
	noiseless := s.opts.Noiseless
	sig := func(ts units.Time) units.Power {
		p := pi1 + dynPower
		if !noiseless {
			p += 0.01 * dynPower * math.Sin(wiggleSeed+2*math.Pi*ts.Seconds()*37)
		}
		return units.Power(p)
	}
	return RunResult{
		Kernel:   k,
		Platform: s.plat.ID,
		Level:    level,
		W:        w,
		Q:        q,
		Accesses: acc,
		TrueTime: units.Time(trueTime),
		TrueDyn:  units.Power(dynPower),
		Signal:   sig,
	}, nil
}

// noiseStream builds a deterministic noise stream for a measurement
// label, or nil when the simulator is noiseless.
func (s *Simulator) noiseStream(label string) *stats.Stream {
	if s.opts.Noiseless {
		return nil
	}
	return stats.NewStream(s.opts.Seed^0xabcd, string(s.plat.ID)+"/"+label)
}

// Measure runs the kernel and records it with the platform's power meter,
// returning the lab-bench measurement tuple. With a fault injector
// configured it may return a transient error (powermon.IsTransient) the
// caller can retry. Measure is MeasureContext without tracing.
func (s *Simulator) Measure(k Kernel) (Measurement, error) {
	return s.MeasureContext(context.Background(), k)
}

// MeasureContext is Measure under a span: with a tracer on ctx it opens
// a sim.measure span recording the kernel, any throttle window or meter
// error as events, and the sanitize pass as a child span carrying the
// quality flags. Without a tracer it costs nothing.
func (s *Simulator) MeasureContext(ctx context.Context, k Kernel) (Measurement, error) {
	ctx, span := obs.Start(ctx, "sim.measure",
		obs.String("platform", string(s.plat.ID)), obs.String("kernel", k.Name))
	defer span.End()
	res, err := s.Run(k)
	if err != nil {
		span.Event("run.error", obs.String("error", err.Error()))
		return Measurement{}, err
	}
	span.SetAttr(obs.String("level", res.Level.String()))
	label := string(s.plat.ID) + "/" + k.Name
	sig, dur := res.Signal, res.TrueTime
	if w, hit := s.opts.Faults.ThrottleEvent(label, dur.Seconds()); hit {
		// Thermal throttle: the run stretches to conserve work while the
		// dynamic power inside the window drops by the throttle factor.
		span.Event("fault.throttle", obs.Float("factor", w.Factor),
			obs.Float("start_s", w.Start), obs.Float("dur_s", w.Dur))
		sig = throttledSignal(sig, s.plat.Single.Pi1.Watts(), w)
		dur = units.Time(w.Total)
	}
	var rng *stats.Stream
	if !s.opts.Noiseless {
		rng = stats.NewStream(s.opts.Seed^0xabcd, string(s.plat.ID)+"/meter/"+k.Name)
	}
	trace, err := s.opts.Faults.Record(s.meter, sig, dur, rng, label)
	if err != nil {
		span.Event("meter.error", obs.String("error", err.Error()),
			obs.Bool("transient", powermon.IsTransient(err)))
		return Measurement{}, err
	}
	var qual powermon.Quality
	if s.opts.Sanitize && !s.opts.Noiseless {
		// The sanitize pass gets its own child span so its share of the
		// measurement shows up in the trace; the closure scopes the defer
		// to exactly the pass.
		func() {
			_, ssp := obs.Start(ctx, "powermon.sanitize", obs.String("kernel", k.Name))
			defer ssp.End()
			qual = trace.Sanitize()
			ssp.SetAttr(qual.SpanAttrs()...)
		}()
	}
	w, q := res.W, res.Q
	inten := units.Intensity(0)
	if q > 0 {
		inten = w.Intensity(q)
	}
	return Measurement{
		Platform:  s.plat.ID,
		Kernel:    k.Name,
		Precision: k.Precision,
		Pattern:   k.Pattern,
		Level:     res.Level,
		W:         w,
		Q:         q,
		Accesses:  res.Accesses,
		Intensity: inten,
		Time:      dur,
		Energy:    trace.Energy(),
		AvgPower:  trace.AvgPower(),
		Quality:   qual,
	}, nil
}

// throttledSignal scales the dynamic (above-idle) portion of the signal
// inside the throttle window.
func throttledSignal(sig powermon.Signal, pi1 float64, w faults.ThrottleWindow) powermon.Signal {
	return func(t units.Time) units.Power {
		p := sig(t).Watts()
		if ts := t.Seconds(); ts >= w.Start && ts < w.Start+w.Dur {
			p = pi1 + w.Factor*(p-pi1)
		}
		return units.Power(p)
	}
}

// MeasureIdle records the platform idling for the given duration: the
// no-load baseline of Table I's column 6. It is MeasureIdleContext
// without tracing.
func (s *Simulator) MeasureIdle(duration units.Time) (units.Power, error) {
	return s.MeasureIdleContext(context.Background(), duration)
}

// MeasureIdleContext is MeasureIdle under a sim.measure_idle span.
func (s *Simulator) MeasureIdleContext(ctx context.Context, duration units.Time) (units.Power, error) {
	_, span := obs.Start(ctx, "sim.measure_idle",
		obs.String("platform", string(s.plat.ID)), obs.Float("duration_s", duration.Seconds()))
	defer span.End()
	var rng *stats.Stream
	if !s.opts.Noiseless {
		rng = stats.NewStream(s.opts.Seed^0x1d1e, string(s.plat.ID)+"/idle")
	}
	trace, err := s.opts.Faults.Record(s.meter, powermon.Constant(s.plat.IdlePower), duration, rng,
		string(s.plat.ID)+"/idle")
	if err != nil {
		span.Event("meter.error", obs.String("error", err.Error()),
			obs.Bool("transient", powermon.IsTransient(err)))
		return 0, err
	}
	if s.opts.Sanitize && !s.opts.Noiseless {
		qual := trace.Sanitize()
		span.SetAttr(qual.SpanAttrs()...)
	}
	return trace.AvgPower(), nil
}

// Package microbench assembles and runs the paper's microbenchmark suite
// (section IV) against the simulated platforms.
//
// The suite has three families, mirroring the paper's:
//
//   - the intensity microbenchmark, which "varies intensity nearly
//     continuously, by varying the number of floating point operations on
//     each word of data loaded from main memory", in single and (where
//     supported) double precision;
//   - the cache microbenchmarks, which size the working set to fit a
//     target level of the memory hierarchy;
//   - the random-access microbenchmark, which chases pointers through a
//     working set far larger than any cache.
//
// Each kernel's pass count is tuned so a run lasts long enough for the
// 1024 Hz power meter to integrate cleanly — the simulated analogue of
// the paper's hand-tuned unrolled loops running for measurable durations.
package microbench

import (
	"fmt"
	"math"

	"archline/internal/machine"
	"archline/internal/model"
	"archline/internal/pool"
	"archline/internal/sim"
	"archline/internal/units"
)

// Config tunes suite construction.
type Config struct {
	// SweepPoints is the number of intensity-sweep kernels (log-spaced
	// flops-per-word). Default 25.
	SweepPoints int
	// MinFPW and MaxFPW bound the flops-per-word sweep. Defaults 0.5 and
	// 2048 (I from 1/8 to 512 flop:Byte in single precision).
	MinFPW, MaxFPW float64
	// TargetRunTime is the wall time each kernel should occupy so the
	// power meter sees enough samples. Default 0.25 s.
	TargetRunTime units.Time
	// DRAMWorkingSet is the streaming working set. Default 64 MiB.
	DRAMWorkingSet units.Bytes
	// IncludeDouble adds a double-precision sweep on capable platforms.
	IncludeDouble bool
	// IncludeCache adds per-cache-level kernels.
	IncludeCache bool
	// IncludeChase adds the random-access kernel.
	IncludeChase bool
	// Workers bounds the kernel-level fan-out of Run and
	// RunRobustContext: how many kernels are measured concurrently on
	// this platform. Zero means NumCPU; the count is clamped by
	// pool.Clamp, the same policy the platform-level fan-out in
	// internal/experiments uses. Every noise, fault and retry-jitter
	// stream keys on (platform, kernel, repeat), so both runners'
	// outputs are bit-identical at any worker count — workers only buy
	// wall clock.
	Workers int
}

// DefaultConfig is the full suite as the paper ran it.
func DefaultConfig() Config {
	return Config{
		SweepPoints:    25,
		MinFPW:         0.5,
		MaxFPW:         2048,
		TargetRunTime:  0.25,
		DRAMWorkingSet: units.MiB(64),
		IncludeDouble:  true,
		IncludeCache:   true,
		IncludeChase:   true,
	}
}

// cacheFPWs are the flops-per-word points used inside each cache level:
// enough spread to separate the level's tau and eps in the fit.
var cacheFPWs = []float64{0, 1, 4, 16}

// BuildSuite constructs the kernel list for a platform.
func BuildSuite(plat *machine.Platform, cfg Config) ([]sim.Kernel, error) {
	if cfg.SweepPoints < 2 {
		return nil, fmt.Errorf("microbench: need at least 2 sweep points, got %d", cfg.SweepPoints)
	}
	if cfg.MinFPW <= 0 || cfg.MaxFPW <= cfg.MinFPW {
		return nil, fmt.Errorf("microbench: bad flops-per-word range [%v, %v]", cfg.MinFPW, cfg.MaxFPW)
	}
	if cfg.TargetRunTime <= 0 || cfg.DRAMWorkingSet <= 0 {
		return nil, fmt.Errorf("microbench: target run time and working set must be positive")
	}
	var kernels []sim.Kernel

	// Intensity sweep from DRAM.
	for i := 0; i < cfg.SweepPoints; i++ {
		frac := float64(i) / float64(cfg.SweepPoints-1)
		fpw := math.Exp(math.Log(cfg.MinFPW) + frac*(math.Log(cfg.MaxFPW)-math.Log(cfg.MinFPW)))
		kernels = append(kernels, tuned(plat, sim.Kernel{
			Name:         fmt.Sprintf("sweep-sp-%02d", i),
			Precision:    sim.Single,
			Pattern:      sim.StreamPattern,
			FlopsPerWord: fpw,
			WorkingSet:   cfg.DRAMWorkingSet,
		}, cfg.TargetRunTime))
		if cfg.IncludeDouble && plat.SupportsDouble() {
			kernels = append(kernels, tuned(plat, sim.Kernel{
				Name:         fmt.Sprintf("sweep-dp-%02d", i),
				Precision:    sim.Double,
				Pattern:      sim.StreamPattern,
				FlopsPerWord: fpw,
				WorkingSet:   cfg.DRAMWorkingSet,
			}, cfg.TargetRunTime))
		}
	}

	if cfg.IncludeCache {
		if plat.L1 != nil {
			for j, fpw := range cacheFPWs {
				kernels = append(kernels, tuned(plat, sim.Kernel{
					Name:         fmt.Sprintf("l1-%d", j),
					Precision:    sim.Single,
					Pattern:      sim.StreamPattern,
					FlopsPerWord: fpw,
					WorkingSet:   units.Bytes(plat.L1Size.Count() / 2),
				}, cfg.TargetRunTime))
			}
		}
		if plat.L2 != nil {
			for j, fpw := range cacheFPWs {
				kernels = append(kernels, tuned(plat, sim.Kernel{
					Name:         fmt.Sprintf("l2-%d", j),
					Precision:    sim.Single,
					Pattern:      sim.StreamPattern,
					FlopsPerWord: fpw,
					// Halfway between L1 and L2 capacity: resident in L2,
					// too large for L1.
					WorkingSet: units.Bytes((plat.L1Size.Count() + plat.L2Size.Count()) / 2),
				}, cfg.TargetRunTime))
			}
		}
	}

	if cfg.IncludeChase && plat.Rand != nil {
		kernels = append(kernels, tuned(plat, sim.Kernel{
			Name:       "chase",
			Precision:  sim.Single,
			Pattern:    sim.ChasePattern,
			WorkingSet: units.MiB(256),
		}, cfg.TargetRunTime))
	}
	return kernels, nil
}

// tuned sets the kernel's pass count so its predicted duration is close
// to the target, using the platform's known throughputs the way a
// benchmark author calibrates iteration counts.
func tuned(plat *machine.Platform, k sim.Kernel, target units.Time) sim.Kernel {
	var perPass float64
	if k.Pattern == sim.ChasePattern {
		if plat.Rand != nil && plat.Rand.Rate > 0 {
			accesses := k.WorkingSet.Count() / plat.Rand.Line.Count()
			perPass = accesses / float64(plat.Rand.Rate)
		}
	} else {
		p := plat.Single
		words := k.WorkingSet.Count() / k.Precision.Bytes().Count()
		tFlop := k.FlopsPerWord * words * float64(p.TauFlop)
		// Use the fastest plausible memory path (L1) for the bound so
		// cache-resident kernels do not under-run.
		tau := float64(p.TauMem)
		if plat.L1 != nil && float64(plat.L1.Tau) < tau {
			tau = float64(plat.L1.Tau)
		}
		tMem := k.WorkingSet.Count() * tau
		perPass = math.Max(tFlop, tMem)
	}
	passes := 1
	if perPass > 0 {
		passes = int(math.Ceil(target.Seconds() / perPass))
	}
	if passes < 1 {
		passes = 1
	}
	k.Passes = passes
	return k
}

// Result is the outcome of running the suite on one platform.
type Result struct {
	Platform     *machine.Platform
	Measurements []sim.Measurement
	IdlePower    units.Power
}

// Run builds and executes the suite, returning all measurements. The
// kernels are measured concurrently under a bounded worker pool
// (Config.Workers; zero means NumCPU). Measurements land in suite
// order and every noise stream keys on (platform, kernel), so the
// Result is bit-identical at any worker count; combined with the
// platform-level fan-out in internal/experiments this gives the
// 12-platform drivers two-level parallelism.
func Run(plat *machine.Platform, cfg Config, opts sim.Options) (*Result, error) {
	kernels, err := BuildSuite(plat, cfg)
	if err != nil {
		return nil, err
	}
	// The simulator is safe for concurrent Measure calls: its platform
	// and meter are read-only and the fault injector locks its own
	// label-keyed state.
	s := sim.New(plat, opts)
	measurements, errs := pool.Map(kernels, cfg.Workers,
		func(_ int, k sim.Kernel) (sim.Measurement, error) {
			return s.Measure(k)
		})
	if i, err := pool.FirstError(errs); err != nil {
		return nil, fmt.Errorf("microbench: %s on %s: %w", kernels[i].Name, plat.Name, err)
	}
	res := &Result{Platform: plat, Measurements: measurements}
	idle, err := s.MeasureIdle(1)
	if err != nil {
		return nil, err
	}
	res.IdlePower = idle
	return res, nil
}

// filter returns the measurements satisfying keep, preallocated by a
// counted first pass so the hot fitting paths cost exactly one
// allocation instead of append's repeated regrowth.
func (r *Result) filter(keep func(*sim.Measurement) bool) []sim.Measurement {
	n := 0
	for i := range r.Measurements {
		if keep(&r.Measurements[i]) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]sim.Measurement, 0, n)
	for i := range r.Measurements {
		if keep(&r.Measurements[i]) {
			out = append(out, r.Measurements[i])
		}
	}
	return out
}

// Sweep returns the DRAM intensity-sweep measurements of one precision,
// in ascending intensity order (the suite builds them that way).
func (r *Result) Sweep(prec sim.Precision) []sim.Measurement {
	return r.filter(func(m *sim.Measurement) bool {
		return m.Pattern == sim.StreamPattern && m.Level == model.LevelDRAM && m.Precision == prec
	})
}

// ByLevel returns the cache measurements for a level.
func (r *Result) ByLevel(level model.MemLevel) []sim.Measurement {
	return r.filter(func(m *sim.Measurement) bool {
		return m.Level == level && m.Pattern == sim.StreamPattern
	})
}

// Chase returns the random-access measurements.
func (r *Result) Chase() []sim.Measurement {
	return r.filter(func(m *sim.Measurement) bool {
		return m.Pattern == sim.ChasePattern
	})
}

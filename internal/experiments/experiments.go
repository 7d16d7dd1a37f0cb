// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver runs the full pipeline — simulate the
// microbenchmark suite, measure with the PowerMon substrate, fit or
// predict with the capped/uncapped models — and returns both structured
// results (consumed by the tests and benches) and a rendered text
// artefact (consumed by the archline CLI and EXPERIMENTS.md).
package experiments

import (
	"archline/internal/machine"
	"archline/internal/microbench"
	"archline/internal/sim"
	"archline/internal/units"
)

// Options configure experiment runs.
type Options struct {
	// Seed drives all simulation noise.
	Seed uint64
	// Noiseless disables measurement noise (useful for debugging; the
	// published artefacts use noisy runs as the paper did).
	Noiseless bool
	// SweepPoints overrides the per-platform intensity sweep resolution.
	// Zero keeps the default (25, matching a dense sweep).
	SweepPoints int
	// Replicates repeats the suite with distinct seeds and pools the
	// samples, as the paper's repeated runs do; zero means 1.
	Replicates int
	// Workers bounds each level of the drivers' two-level fan-out: the
	// platform-level pool (12-way) and the kernel-level pool inside each
	// microbench.Run both take this count. Zero uses NumCPU-many; the
	// exact clamping semantics live in pool.Clamp. Results are
	// bit-identical at any worker count.
	Workers int
}

// SuiteConfig builds the microbenchmark configuration for an experiment,
// threading the worker budget down so the suite's kernel-level pool
// follows the same setting as the platform fan-out.
func (o Options) SuiteConfig() microbench.Config {
	cfg := microbench.DefaultConfig()
	if o.SweepPoints > 0 {
		cfg.SweepPoints = o.SweepPoints
	}
	cfg.Workers = o.Workers
	return cfg
}

// simOptions builds the simulator options for one platform.
func (o Options) simOptions() sim.Options {
	return sim.Options{Seed: o.Seed, Noiseless: o.Noiseless}
}

// runSuite runs the full microbenchmark suite on a platform.
func (o Options) runSuite(p *machine.Platform) (*microbench.Result, error) {
	return microbench.Run(p, o.SuiteConfig(), o.simOptions())
}

// fig5Grid is the intensity range of figs. 5-7: 1/8 to 512 flop:Byte.
var fig5Grid = struct {
	Lo, Hi units.Intensity
	N      int
}{Lo: 0.125, Hi: 512, N: 49}

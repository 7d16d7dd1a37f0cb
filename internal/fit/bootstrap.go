package fit

import (
	"errors"
	"fmt"
	"sort"

	"archline/internal/microbench"
	"archline/internal/model"
	"archline/internal/pool"
	"archline/internal/sim"
	"archline/internal/stats"
)

// Interval is a bootstrap percentile confidence interval with the
// point estimate from the full-sample fit.
type Interval struct {
	Lo, Point, Hi float64
}

// Width returns Hi - Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Contains reports whether v lies inside [Lo, Hi].
func (iv Interval) Contains(v float64) bool { return v >= iv.Lo && v <= iv.Hi }

// BootstrapResult carries per-parameter confidence intervals for the
// six DRAM-level model parameters.
type BootstrapResult struct {
	// Intervals maps parameter name (tau_flop, tau_mem, eps_s, eps_mem,
	// pi_1, delta_pi) to its interval.
	Intervals map[string]Interval
	// B is the number of bootstrap replicates used.
	B int
	// Level is the confidence level (e.g. 0.95).
	Level float64
}

// paramVector extracts the six parameters in a fixed order.
func paramVector(p model.Params) [6]float64 {
	return [6]float64{
		float64(p.TauFlop), float64(p.TauMem),
		float64(p.EpsFlop), float64(p.EpsMem),
		p.Pi1.Watts(), p.DeltaPi.Watts(),
	}
}

// paramNames matches paramVector's order.
var paramNames = [6]string{"tau_flop", "tau_mem", "eps_s", "eps_mem", "pi_1", "delta_pi"}

// Bootstrap estimates confidence intervals for the fitted DRAM
// parameters by case-resampling the single-precision sweep measurements
// B times and refitting each replicate. The paper reports its fits as
// "statistically significant estimates"; this is the machinery that
// quantifies that claim for the reproduction.
func Bootstrap(res *microbench.Result, b int, level float64, opts Options) (*BootstrapResult, error) {
	if b < 10 {
		return nil, errors.New("fit: need at least 10 bootstrap replicates")
	}
	if level <= 0 || level >= 1 {
		return nil, errors.New("fit: confidence level must be in (0,1)")
	}
	sweep := res.Sweep(sim.Single)
	if len(sweep) < 6 {
		return nil, errors.New("fit: insufficient sweep data to bootstrap")
	}
	// Point estimate from the full sample.
	point, err := Platform(res, opts)
	if err != nil {
		return nil, err
	}
	pv := paramVector(point.Params)

	// Replicate fits use fewer restarts: each resample is a perturbation
	// of a well-conditioned problem whose solution is near the point
	// estimate. Replicates are independent, so they fan out on the
	// shared pool; each derives its own deterministic resampling stream,
	// making the result identical at any parallelism.
	repOpts := opts
	repOpts.Restarts = 2
	vecs, errs := pool.Map(make([]struct{}, b), 0, func(rep int, _ struct{}) ([6]float64, error) {
		rng := stats.NewStream(opts.Seed^0xb00f,
			fmt.Sprintf("bootstrap-%s-%d", res.Platform.ID, rep))
		clone := &microbench.Result{
			Platform:  res.Platform,
			IdlePower: res.IdlePower,
		}
		// Case-resample the SP sweep; keep everything else out (only
		// the DRAM parameters are bootstrapped).
		for range sweep {
			clone.Measurements = append(clone.Measurements, sweep[rng.Intn(len(sweep))])
		}
		pf, err := Platform(clone, repOpts)
		if err != nil {
			return [6]float64{}, err
		}
		return paramVector(pf.Params), nil
	})
	if rep, err := pool.FirstError(errs); err != nil {
		return nil, fmt.Errorf("fit: bootstrap replicate %d: %w", rep, err)
	}
	samples := make([][]float64, 6)
	for _, vec := range vecs {
		for j := range samples {
			samples[j] = append(samples[j], vec[j])
		}
	}

	alpha := (1 - level) / 2
	out := &BootstrapResult{Intervals: map[string]Interval{}, B: b, Level: level}
	for j, name := range paramNames {
		s := append([]float64(nil), samples[j]...)
		sort.Float64s(s)
		out.Intervals[name] = Interval{
			Lo:    stats.Quantile(s, alpha),
			Point: pv[j],
			Hi:    stats.Quantile(s, 1-alpha),
		}
	}
	return out, nil
}

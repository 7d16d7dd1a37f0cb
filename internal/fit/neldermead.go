// Package fit implements the paper's parameter-estimation pipeline: the
// "(nonlinear) regression parameter fitting techniques to obtain
// statistically significant estimates of the values tau_flop, tau_mem,
// eps_flop, eps_mem, pi_1, and DeltaPi, as well as the corresponding
// parameters for each cache level" (section V-A).
//
// The optimizer is a classic Nelder-Mead downhill simplex with restarts
// and multi-start, which is robust to the kinks the capped model's
// max(...) introduces into the objective. Linear sub-problems use QR
// least squares.
package fit

import (
	"errors"
	"math"
	"sort"

	"archline/internal/pool"
	"archline/internal/stats"
)

// Objective is a scalar function to minimize.
type Objective func(x []float64) float64

// NMOptions tune the Nelder-Mead optimizer.
type NMOptions struct {
	// MaxIter bounds the number of simplex iterations. Default 2000.
	MaxIter int
	// Tol terminates when the simplex's relative function spread falls
	// below it. Default 1e-10.
	Tol float64
	// Step is the initial simplex displacement per coordinate. Default 0.1.
	Step float64
}

func (o NMOptions) withDefaults() NMOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 2000
	}
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	if o.Step == 0 {
		o.Step = 0.1
	}
	return o
}

// NMResult is the outcome of a minimization.
type NMResult struct {
	X     []float64 // best point found
	F     float64   // objective at X
	Iters int       // iterations used
}

// NelderMead minimizes f starting from x0, which it copies and never
// writes to.
func NelderMead(f Objective, x0 []float64, opts NMOptions) (NMResult, error) {
	if f == nil {
		return NMResult{}, errors.New("fit: nil objective")
	}
	n := len(x0)
	if n == 0 {
		return NMResult{}, errors.New("fit: empty start point")
	}
	opts = opts.withDefaults()

	// Standard coefficients.
	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)

	type vertex struct {
		x []float64
		f float64
	}
	eval := func(x []float64) float64 {
		v := f(x)
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}
	// Build the initial simplex.
	simplex := make([]vertex, n+1)
	base := append([]float64(nil), x0...)
	simplex[0] = vertex{x: base, f: eval(base)}
	for i := 1; i <= n; i++ {
		x := append([]float64(nil), x0...)
		step := opts.Step
		if x[i-1] != 0 {
			step = opts.Step * math.Abs(x[i-1])
		}
		x[i-1] += step
		simplex[i] = vertex{x: x, f: eval(x)}
	}

	centroid := make([]float64, n)
	trial := make([]float64, n)
	iters := 0
	for ; iters < opts.MaxIter; iters++ {
		sort.Slice(simplex, func(a, b int) bool { return simplex[a].f < simplex[b].f })
		best, worst := simplex[0], simplex[n]
		// Convergence requires both the objective spread and the simplex
		// extent to be small: a flat-valley simplex (equal f at distinct
		// points, common with piecewise objectives) must keep contracting
		// rather than stop early.
		spread := math.Abs(worst.f - best.f)
		scale := math.Abs(best.f) + math.Abs(worst.f) + 1e-300
		xspread := 0.0
		for j := 0; j < n; j++ {
			lo, hi := simplex[0].x[j], simplex[0].x[j]
			for i := 1; i <= n; i++ {
				lo = math.Min(lo, simplex[i].x[j])
				hi = math.Max(hi, simplex[i].x[j])
			}
			rel := (hi - lo) / (1 + math.Abs(best.x[j]))
			xspread = math.Max(xspread, rel)
		}
		if spread/scale < opts.Tol && xspread < math.Sqrt(opts.Tol) {
			break
		}
		// Centroid of all but the worst.
		for j := range centroid {
			centroid[j] = 0
		}
		for i := 0; i < n; i++ {
			for j := range centroid {
				centroid[j] += simplex[i].x[j]
			}
		}
		for j := range centroid {
			centroid[j] /= float64(n)
		}
		// Reflection.
		for j := range trial {
			trial[j] = centroid[j] + alpha*(centroid[j]-worst.x[j])
		}
		fr := eval(trial)
		switch {
		case fr < best.f:
			// Expansion.
			exp := make([]float64, n)
			for j := range exp {
				exp[j] = centroid[j] + gamma*(trial[j]-centroid[j])
			}
			if fe := eval(exp); fe < fr {
				simplex[n] = vertex{x: exp, f: fe}
			} else {
				simplex[n] = vertex{x: append([]float64(nil), trial...), f: fr}
			}
		case fr < simplex[n-1].f:
			simplex[n] = vertex{x: append([]float64(nil), trial...), f: fr}
		default:
			// Contraction (inside or outside).
			var fc float64
			con := make([]float64, n)
			if fr < worst.f {
				for j := range con {
					con[j] = centroid[j] + rho*(trial[j]-centroid[j])
				}
				fc = eval(con)
				if fc <= fr {
					simplex[n] = vertex{x: con, f: fc}
					continue
				}
			} else {
				for j := range con {
					con[j] = centroid[j] + rho*(worst.x[j]-centroid[j])
				}
				fc = eval(con)
				if fc < worst.f {
					simplex[n] = vertex{x: con, f: fc}
					continue
				}
			}
			// Shrink toward the best vertex.
			for i := 1; i <= n; i++ {
				for j := range simplex[i].x {
					simplex[i].x[j] = best.x[j] + sigma*(simplex[i].x[j]-best.x[j])
				}
				simplex[i].f = eval(simplex[i].x)
			}
		}
	}
	sort.Slice(simplex, func(a, b int) bool { return simplex[a].f < simplex[b].f })
	return NMResult{X: simplex[0].x, F: simplex[0].f, Iters: iters}, nil
}

// MultiStart runs NelderMead from x0 and from `restarts` log-normally
// perturbed copies, returning the best result. It is the defence against
// the capped objective's local minima.
//
// The perturbed starts are all drawn first, from one seeded stream, and
// the 1+restarts minimizations then fan out on the shared pool, so f
// must be safe for concurrent use (a pure function of x, as every
// objective in this package is). The reduction runs in start order and
// keeps the earlier start on a tie, so the result and error are those
// of running the starts one after another.
func MultiStart(f Objective, x0 []float64, restarts int, spread float64, seed uint64, opts NMOptions) (NMResult, error) {
	starts := [][]float64{x0}
	rng := stats.NewStream(seed, "multistart")
	for r := 0; r < restarts; r++ {
		x := make([]float64, len(x0))
		for j := range x {
			if x0[j] == 0 {
				x[j] = rng.Gaussian(0, spread)
			} else {
				x[j] = x0[j] + spread*math.Abs(x0[j])*rng.NormFloat64()
			}
		}
		starts = append(starts, x)
	}
	results, errs := pool.Map(starts, 0, func(_ int, x []float64) (NMResult, error) {
		return NelderMead(f, x, opts)
	})
	if _, err := pool.FirstError(errs); err != nil {
		return NMResult{}, err
	}
	best := results[0]
	for _, res := range results[1:] {
		if res.F < best.F {
			best = res
		}
	}
	return best, nil
}

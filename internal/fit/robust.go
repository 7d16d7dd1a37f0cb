package fit

import (
	"math"

	"archline/internal/microbench"
	"archline/internal/model"
	// Aliased: "obs" is this package's conventional name for the
	// observation slice the fitters consume.
	tele "archline/internal/obs"
	"archline/internal/powermon"
	"archline/internal/stats"
	"archline/internal/units"
)

// Robust refitting: least squares is the right estimator for the clean
// Gaussian noise the simulator produces, but one throttled run or one
// un-sanitized spike burst drags a squared loss arbitrarily far. When
// the residual diagnostics flag contamination, the fit switches to a
// Huber loss — quadratic near zero, linear in the tails — seeded from
// the least-squares solution, and the PlatformFit carries a grade so
// consumers know which estimator produced their constants.

const (
	// outlierK flags a residual component beyond this many robust
	// standard deviations as an outlier.
	outlierK = 3.5
	// contaminationThreshold is the outlier fraction above which the
	// Huber refit replaces the least-squares solution.
	contaminationThreshold = 0.02
	// huberK scales the robust residual spread into the Huber corner
	// (the classical 95%-efficiency constant).
	huberK = 1.345
	// gradeCContamination is the post-refit outlier fraction beyond
	// which the fit is graded C: even the robust loss is extrapolating.
	gradeCContamination = 0.25
	// madScale converts a MAD to a Gaussian-consistent sigma.
	madScale = 1.4826
)

// residuals returns the per-observation log-residual components (time
// and power interleaved) of the parameters over the observations.
func residuals(obs []observation, p model.Params) []float64 {
	rs := make([]float64, 0, 2*len(obs))
	for _, o := range obs {
		that := p.Time(units.Flops(o.w), units.Bytes(o.q)).Seconds()
		ehat := p.Energy(units.Flops(o.w), units.Bytes(o.q)).Joules()
		if that <= 0 || ehat <= 0 || math.IsInf(that, 0) {
			rs = append(rs, math.Inf(1), math.Inf(1))
			continue
		}
		rs = append(rs, math.Log(that/o.t), math.Log(ehat/that/o.p))
	}
	return rs
}

// diagnostics summarizes a residual vector robustly.
type diagnostics struct {
	scale         float64 // MAD-based robust sigma
	contamination float64 // fraction beyond outlierK*scale
	rms           float64
}

func diagnose(rs []float64) diagnostics {
	if len(rs) == 0 {
		return diagnostics{}
	}
	abs := make([]float64, len(rs))
	sumSq := 0.0
	for i, r := range rs {
		abs[i] = math.Abs(r)
		sumSq += r * r
	}
	scale := madScale * stats.Select(abs, len(abs)/2)
	var d diagnostics
	d.scale = scale
	d.rms = math.Sqrt(sumSq / float64(len(rs)))
	if scale <= 0 {
		return d
	}
	out := 0
	for _, a := range abs {
		if a > outlierK*scale {
			out++
		}
	}
	d.contamination = float64(out) / float64(len(abs))
	return d
}

// huber is the Huber loss with corner delta.
func huber(r, delta float64) float64 {
	a := math.Abs(r)
	if a <= delta {
		return r * r
	}
	return delta * (2*a - delta)
}

// huberObjective mirrors dramObjective with the squared loss replaced by
// a Huber loss of the given corner.
func huberObjective(obs []observation, tauF, tauM, maxP, delta float64) Objective {
	const dpiReg = 0.01
	return func(logx []float64) float64 {
		p := paramsFromLog(tauF, tauM, logx)
		loss := 0.0
		if cap := maxP - p.Pi1.Watts(); cap > 0 {
			if d := logx[3] - math.Log(cap); d > 0 {
				loss += dpiReg * d * d
			}
		}
		for _, o := range obs {
			that := p.Time(units.Flops(o.w), units.Bytes(o.q)).Seconds()
			ehat := p.Energy(units.Flops(o.w), units.Bytes(o.q)).Joules()
			if that <= 0 || ehat <= 0 || math.IsInf(that, 0) {
				return math.Inf(1)
			}
			loss += huber(math.Log(that/o.t), delta)
			loss += huber(math.Log(ehat/that/o.p), delta)
		}
		return loss
	}
}

// robustRefit inspects the least-squares solution's residuals and, when
// they look contaminated, replaces the fit with a Huber refit seeded
// from the least-squares point. It updates out in place and narrates
// the diagnostics and any re-fit as events on span (which may be nil).
func robustRefit(span *tele.Span, out *PlatformFit, obs []observation, tauF, tauM, maxP float64,
	best NMResult, opts Options) {
	d := diagnose(residuals(obs, out.Params))
	out.Contamination = d.contamination
	span.Event("residual.diagnostics", tele.Float("contamination", d.contamination),
		tele.Float("scale", d.scale), tele.Float("rms", d.rms))
	if d.contamination <= contaminationThreshold || d.scale <= 0 {
		return
	}
	rb, err := MultiStart(huberObjective(obs, tauF, tauM, maxP, huberK*d.scale),
		best.X, perturbedStarts, startSpread, opts.Seed+3)
	if err != nil || math.IsInf(rb.F, 0) {
		span.Event("huber.refit.failed")
		return // keep the least-squares fit; the grade will say C
	}
	params := paramsFromLog(tauF, tauM, rb.X)
	d2 := diagnose(residuals(obs, params))
	out.Params = params
	out.RobustApplied = true
	out.Contamination = d2.contamination
	out.Residual = d2.rms
	span.Event("huber.refit", tele.Float("contamination_before", d.contamination),
		tele.Float("contamination_after", d2.contamination), tele.Float("rms", d2.rms))
}

// fitGrade buckets the fit's trustworthiness from the residual
// diagnostics and the measurement-quality flags the suite carried in.
func fitGrade(out *PlatformFit, res *microbench.Result) powermon.Grade {
	grade := powermon.GradeA
	if out.RobustApplied {
		grade = powermon.GradeB
	}
	// Degraded measurements cap the grade at B even when the fit
	// converged cleanly; a quarter of the suite at GradeC means the
	// constants rest on data no estimator can trust.
	gradeC := 0
	for _, m := range res.Measurements {
		switch m.Quality.Grade {
		case powermon.GradeB:
			if grade < powermon.GradeB {
				grade = powermon.GradeB
			}
		case powermon.GradeC:
			gradeC++
		}
	}
	if gradeC > 0 && grade < powermon.GradeB {
		grade = powermon.GradeB
	}
	if len(res.Measurements) > 0 &&
		float64(gradeC)/float64(len(res.Measurements)) > 0.25 {
		grade = powermon.GradeC
	}
	if out.Contamination > gradeCContamination {
		grade = powermon.GradeC
	}
	return grade
}

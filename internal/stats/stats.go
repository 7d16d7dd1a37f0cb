// Package stats implements the statistical machinery the paper's
// evaluation uses: descriptive statistics, quantiles and boxplot
// five-number summaries (fig. 4's error distributions), Pearson
// correlation (the pi_1-fraction vs. energy-efficiency correlation of
// section V-C), and the two-sample Kolmogorov-Smirnov test used to decide
// which platforms' capped and uncapped error distributions differ
// significantly (the "**" markers of fig. 4).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty reports a statistic requested over an empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or NaN for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the R default the paper's
// boxplots were produced with). It returns NaN for an empty sample or q
// outside [0, 1]. xs need not be sorted.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// quantileSorted is Quantile on an already-sorted slice.
func quantileSorted(s []float64, q float64) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	if lo == hi {
		return s[lo]
	}
	frac := h - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 0.5-quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// FiveNumber is a boxplot summary: minimum, lower quartile, median, upper
// quartile, maximum.
type FiveNumber struct {
	Min, Q1, Median, Q3, Max float64
}

// IQR returns the interquartile range Q3 - Q1.
func (f FiveNumber) IQR() float64 { return f.Q3 - f.Q1 }

// Summary computes the five-number summary of xs.
func Summary(xs []float64) (FiveNumber, error) {
	if len(xs) == 0 {
		return FiveNumber{}, ErrEmpty
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return FiveNumber{
		Min:    s[0],
		Q1:     quantileSorted(s, 0.25),
		Median: quantileSorted(s, 0.5),
		Q3:     quantileSorted(s, 0.75),
		Max:    s[len(s)-1],
	}, nil
}

// Pearson returns the Pearson product-moment correlation coefficient of
// the paired samples xs and ys. It returns an error when the samples have
// different lengths or fewer than two pairs, and NaN when either sample
// has zero variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: mismatched sample lengths")
	}
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN(), nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// KSResult is the outcome of a two-sample Kolmogorov-Smirnov test.
type KSResult struct {
	D float64 // the K-S statistic: sup |F1 - F2| over the pooled sample
	P float64 // asymptotic p-value against H0: same underlying distribution
	N int     // size of the first sample
	M int     // size of the second sample
}

// Significant reports whether the null hypothesis (same distribution) is
// rejected at level alpha; the paper uses alpha = 0.05.
func (r KSResult) Significant(alpha float64) bool { return r.P < alpha }

// KolmogorovSmirnov performs the two-sample K-S test on xs and ys,
// mirroring the paper's use of it to compare capped and uncapped model
// error distributions. The p-value uses the asymptotic Kolmogorov
// distribution with the effective sample size n*m/(n+m); as the paper
// notes, the test makes no distributional assumptions and may be
// conservative.
func KolmogorovSmirnov(xs, ys []float64) (KSResult, error) {
	n, m := len(xs), len(ys)
	if n == 0 || m == 0 {
		return KSResult{}, ErrEmpty
	}
	a := append([]float64(nil), xs...)
	b := append([]float64(nil), ys...)
	sort.Float64s(a)
	sort.Float64s(b)

	var d float64
	i, j := 0, 0
	for i < n && j < m {
		x := a[i]
		y := b[j]
		v := math.Min(x, y)
		for i < n && a[i] <= v {
			i++
		}
		for j < m && b[j] <= v {
			j++
		}
		f1 := float64(i) / float64(n)
		f2 := float64(j) / float64(m)
		if diff := math.Abs(f1 - f2); diff > d {
			d = diff
		}
	}

	ne := float64(n) * float64(m) / float64(n+m)
	// Asymptotic p-value with the Stephens small-sample correction, as in
	// Numerical Recipes and R's ks.test (exact=FALSE).
	sq := math.Sqrt(ne)
	lambda := (sq + 0.12 + 0.11/sq) * d
	return KSResult{D: d, P: kolmogorovQ(lambda), N: n, M: m}, nil
}

// kolmogorovQ evaluates Q_KS(lambda) = 2 sum_{k>=1} (-1)^{k-1}
// exp(-2 k^2 lambda^2), the complementary CDF of the Kolmogorov
// distribution. It is monotone from 1 (lambda -> 0) to 0 (lambda -> inf).
func kolmogorovQ(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	const (
		eps1    = 1e-6  // relative convergence
		eps2    = 1e-16 // absolute convergence
		maxTerm = 100
	)
	a2 := -2 * lambda * lambda
	sum := 0.0
	prev := 0.0
	sign := 1.0
	for k := 1; k <= maxTerm; k++ {
		term := sign * 2 * math.Exp(a2*float64(k)*float64(k))
		sum += term
		at := math.Abs(term)
		if at <= eps1*prev || at <= eps2*sum {
			if sum < 0 {
				return 0
			}
			if sum > 1 {
				return 1
			}
			return sum
		}
		prev = at
		sign = -sign
	}
	return 1 // failed to converge: be conservative, do not reject
}

// AbsMedian returns the median of |xs|, a robust magnitude summary used
// when ranking platforms by model error.
func AbsMedian(xs []float64) float64 {
	abs := make([]float64, len(xs))
	for i, x := range xs {
		abs[i] = math.Abs(x)
	}
	return Median(abs)
}

// Spearman returns the Spearman rank correlation of the paired samples:
// Pearson correlation of the rank vectors, robust to monotone
// transformations and outliers. Ties receive average ranks.
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: mismatched sample lengths")
	}
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	return Pearson(ranks(xs), ranks(ys))
}

// ranks assigns average ranks (1-based) to the sample.
func ranks(xs []float64) []float64 {
	type iv struct {
		v float64
		i int
	}
	s := make([]iv, len(xs))
	for i, v := range xs {
		s[i] = iv{v, i}
	}
	sort.Slice(s, func(a, b int) bool { return s[a].v < s[b].v })
	out := make([]float64, len(xs))
	for i := 0; i < len(s); {
		j := i
		//archlint:ignore floatcmp rank ties must use exact equality; fuzzy ties would change the statistic
		for j < len(s) && s[j].v == s[i].v {
			j++
		}
		avg := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			out[s[k].i] = avg
		}
		i = j
	}
	return out
}

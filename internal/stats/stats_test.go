package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, name string) {
	t.Helper()
	if math.IsNaN(got) != math.IsNaN(want) || math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (tol %v)", name, got, want, tol)
	}
}

func TestDescriptive(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, Mean(xs), 5, 1e-12, "Mean")
}

func TestDescriptiveEmpty(t *testing.T) {
	for name, v := range map[string]float64{
		"Mean": Mean(nil), "Median": Median(nil),
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s(nil) = %v, want NaN", name, v)
		}
	}
	if _, err := Summary(nil); err != ErrEmpty {
		t.Errorf("Summary(nil) err = %v, want ErrEmpty", err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	approx(t, Quantile(xs, 0), 1, 0, "q0")
	approx(t, Quantile(xs, 1), 4, 0, "q1")
	approx(t, Quantile(xs, 0.5), 2.5, 1e-12, "median")
	approx(t, Quantile(xs, 0.25), 1.75, 1e-12, "q1(type7)") // R type-7
	approx(t, Quantile([]float64{42}, 0.73), 42, 0, "singleton")
	if !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(xs, 1.1)) {
		t.Error("out-of-range q should be NaN")
	}
	// Quantile must not mutate its input.
	ys := []float64{3, 1, 2}
	Quantile(ys, 0.5)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("Quantile mutated input")
	}
}

func TestSummary(t *testing.T) {
	s, err := Summary([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, s.Min, 1, 0, "min")
	approx(t, s.Q1, 2, 1e-12, "q1")
	approx(t, s.Median, 3, 0, "median")
	approx(t, s.Q3, 4, 1e-12, "q3")
	approx(t, s.Max, 5, 0, "max")
	approx(t, s.IQR(), 2, 1e-12, "iqr")
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, r, 1, 1e-12, "perfect positive")

	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	approx(t, r, -1, 1e-12, "perfect negative")

	if _, err := Pearson(xs, ys[:3]); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := Pearson(nil, nil); err != ErrEmpty {
		t.Error("empty should return ErrEmpty")
	}
	r, _ = Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})
	if !math.IsNaN(r) {
		t.Error("zero variance should yield NaN")
	}
}

func TestKolmogorovSmirnovIdentical(t *testing.T) {
	xs := make([]float64, 200)
	s := NewStream(7, "ks-identical")
	for i := range xs {
		xs[i] = s.NormFloat64()
	}
	r, err := KolmogorovSmirnov(xs, xs)
	if err != nil {
		t.Fatal(err)
	}
	if r.D != 0 {
		t.Errorf("D = %v for identical samples, want 0", r.D)
	}
	if r.P < 0.99 {
		t.Errorf("P = %v for identical samples, want ~1", r.P)
	}
	if r.Significant(0.05) {
		t.Error("identical samples should not be significant")
	}
}

func TestKolmogorovSmirnovShifted(t *testing.T) {
	s := NewStream(11, "ks-shifted")
	xs := make([]float64, 300)
	ys := make([]float64, 300)
	for i := range xs {
		xs[i] = s.NormFloat64()
		ys[i] = s.NormFloat64() + 1.5 // well-separated
	}
	r, err := KolmogorovSmirnov(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Significant(0.05) {
		t.Errorf("shifted samples not significant: D=%v P=%v", r.D, r.P)
	}
	if r.D < 0.4 {
		t.Errorf("D = %v for 1.5-sigma shift, want large", r.D)
	}
}

func TestKolmogorovSmirnovSameDistribution(t *testing.T) {
	// Two draws from the same distribution should usually NOT be
	// significant. With a fixed seed this is deterministic.
	s := NewStream(13, "ks-same")
	xs := make([]float64, 250)
	ys := make([]float64, 250)
	for i := range xs {
		xs[i] = s.NormFloat64()
		ys[i] = s.NormFloat64()
	}
	r, err := KolmogorovSmirnov(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if r.Significant(0.05) {
		t.Errorf("same-distribution samples flagged significant: D=%v P=%v", r.D, r.P)
	}
}

func TestKolmogorovSmirnovEmpty(t *testing.T) {
	if _, err := KolmogorovSmirnov(nil, []float64{1}); err != ErrEmpty {
		t.Error("empty first sample should error")
	}
	if _, err := KolmogorovSmirnov([]float64{1}, nil); err != ErrEmpty {
		t.Error("empty second sample should error")
	}
}

func TestKolmogorovQ(t *testing.T) {
	// Known values of the Kolmogorov distribution.
	approx(t, kolmogorovQ(0), 1, 0, "Q(0)")
	approx(t, kolmogorovQ(1.36), 0.0505, 5e-3, "Q(1.36)~0.05 critical value")
	approx(t, kolmogorovQ(1.63), 0.01, 5e-3, "Q(1.63)~0.01 critical value")
	if q := kolmogorovQ(10); q > 1e-10 {
		t.Errorf("Q(10) = %v, want ~0", q)
	}
	// Monotone non-increasing.
	prev := 1.0
	for l := 0.1; l < 3; l += 0.1 {
		q := kolmogorovQ(l)
		if q > prev+1e-12 {
			t.Fatalf("kolmogorovQ not monotone at %v: %v > %v", l, q, prev)
		}
		prev = q
	}
}

func TestAbsMedian(t *testing.T) {
	approx(t, AbsMedian([]float64{-3, 1, 2}), 2, 1e-12, "AbsMedian")
}

func TestStreamDeterminism(t *testing.T) {
	a := NewStream(42, "x")
	b := NewStream(42, "x")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed+label should produce identical streams")
		}
	}
	c := NewStream(42, "y")
	same := true
	a = NewStream(42, "x")
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different labels should produce different streams")
	}
}

func TestStreamDistributions(t *testing.T) {
	s := NewStream(1, "dist")
	n := 20000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / float64(n)
	sd := math.Sqrt(sum2/float64(n) - mean*mean)
	approx(t, mean, 0, 0.03, "normal mean")
	approx(t, sd, 1, 0.03, "normal sd")

	s2 := NewStream(2, "uniform")
	var us float64
	for i := 0; i < n; i++ {
		u := s2.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of range: %v", u)
		}
		us += u
	}
	approx(t, us/float64(n), 0.5, 0.01, "uniform mean")
}

func TestStreamGaussianAndLogNormal(t *testing.T) {
	s := NewStream(3, "g")
	n := 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Gaussian(10, 2)
	}
	approx(t, sum/float64(n), 10, 0.1, "gaussian mean")

	s = NewStream(4, "ln")
	for i := 0; i < 1000; i++ {
		if f := s.LogNormalFactor(0.05); f <= 0 {
			t.Fatal("log-normal factor must be positive")
		}
	}
}

func TestStreamIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewStream(1, "p").Intn(0)
}

func TestStreamShuffle(t *testing.T) {
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	s := NewStream(5, "shuffle")
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool)
	for _, x := range xs {
		seen[x] = true
	}
	if len(seen) != 8 {
		t.Error("shuffle lost elements")
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		lo, hi := Quantile(xs, q1), Quantile(xs, q2)
		return lo <= hi && lo >= slices.Min(xs)-1e-9 && hi <= slices.Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: K-S D statistic is within [0,1] and p within [0,1].
func TestQuickKSBounds(t *testing.T) {
	f := func(a, b []float64) bool {
		xs := filterFinite(a)
		ys := filterFinite(b)
		if len(xs) == 0 || len(ys) == 0 {
			return true
		}
		r, err := KolmogorovSmirnov(xs, ys)
		if err != nil {
			return false
		}
		return r.D >= 0 && r.D <= 1 && r.P >= 0 && r.P <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Pearson correlation lies in [-1, 1].
func TestQuickPearsonBounds(t *testing.T) {
	f := func(a []float64) bool {
		xs := filterFinite(a)
		if len(xs) < 2 {
			return true
		}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = x*0.5 + float64(i%3)
		}
		r, err := Pearson(xs, ys)
		if err != nil {
			return false
		}
		return math.IsNaN(r) || (r >= -1-1e-9 && r <= 1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func filterFinite(raw []float64) []float64 {
	var out []float64
	for _, v := range raw {
		if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e100 {
			out = append(out, v)
		}
	}
	return out
}

func TestSpearman(t *testing.T) {
	// Monotone nonlinear relation: Spearman 1, Pearson < 1.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 64, 125}
	rho, err := Spearman(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, rho, 1, 1e-12, "monotone spearman")
	// Reversed: -1.
	rev := []float64{125, 64, 27, 8, 1}
	rho, _ = Spearman(xs, rev)
	approx(t, rho, -1, 1e-12, "reversed spearman")
	// Ties get average ranks and stay in [-1,1].
	tied := []float64{1, 1, 2, 2, 3}
	rho, err = Spearman(xs, tied)
	if err != nil {
		t.Fatal(err)
	}
	if rho < 0.8 || rho > 1 {
		t.Errorf("tied spearman %v", rho)
	}
	if _, err := Spearman(xs, ys[:2]); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := Spearman(nil, nil); err != ErrEmpty {
		t.Error("empty should return ErrEmpty")
	}
}

func TestRanks(t *testing.T) {
	r := ranks([]float64{10, 30, 20, 30})
	want := []float64{1, 3.5, 2, 3.5}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", r, want)
		}
	}
}

package fit

import (
	"fmt"
	"math"
	"testing"

	"archline/internal/stats"
)

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + 2*(x[1]+1)*(x[1]+1)
	}
	res, err := NelderMead(f, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-3) > 1e-4 || math.Abs(res.X[1]+1) > 1e-4 {
		t.Errorf("minimum at %v, want (3,-1)", res.X)
	}
	if res.F > 1e-8 {
		t.Errorf("objective %v, want ~0", res.F)
	}
	if res.Iters <= 0 {
		t.Error("iterations should be counted")
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	res, err := NelderMead(f, []float64{-1.2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Errorf("Rosenbrock minimum at %v, want (1,1)", res.X)
	}
}

func TestNelderMeadPiecewiseKink(t *testing.T) {
	// max-of-linear objective, like the capped model's time: NM must cope
	// with non-smooth points.
	f := func(x []float64) float64 {
		return math.Max(math.Abs(x[0]-2), 0.5*math.Abs(x[0]-2)+1e-3) + math.Abs(x[1])
	}
	res, err := NelderMead(f, []float64{10, -7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-2) > 1e-2 || math.Abs(res.X[1]) > 1e-2 {
		t.Errorf("kinked minimum at %v, want (2,0)", res.X)
	}
}

func TestNelderMeadHandlesNaN(t *testing.T) {
	// Objective returning NaN off-domain must not break the search.
	f := func(x []float64) float64 {
		if x[0] < 0 {
			return math.NaN()
		}
		return (x[0] - 2) * (x[0] - 2)
	}
	res, err := NelderMead(f, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-2) > 1e-4 {
		t.Errorf("minimum at %v, want 2", res.X)
	}
}

func TestNelderMeadErrors(t *testing.T) {
	if _, err := NelderMead(nil, []float64{0}); err == nil {
		t.Error("nil objective should error")
	}
	if _, err := NelderMead(func([]float64) float64 { return 0 }, nil); err == nil {
		t.Error("empty start should error")
	}
}

func TestNelderMeadZeroCoordinateStep(t *testing.T) {
	// A zero starting coordinate still gets a nonzero simplex step.
	f := func(x []float64) float64 { return (x[0] - 1) * (x[0] - 1) }
	res, err := NelderMead(f, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-4 {
		t.Errorf("minimum at %v, want 1", res.X)
	}
}

// doubleWell has a local minimum at x=-1 (f=0.5) and the global one at
// x=2 (f=0).
func doubleWell(x []float64) float64 {
	a := (x[0] + 1) * (x[0] + 1) * ((x[0]-2)*(x[0]-2) + 0.0)
	return a + 0.5*math.Exp(-(x[0]-(-1))*(x[0]-(-1))*4)*0 +
		0.5/(1+(x[0]-(-1))*(x[0]-(-1))*100)
}

func TestMultiStartEscapesLocalMinimum(t *testing.T) {
	// Start near the local minimum; multi-start with wide spread should
	// find the global one at x=2.
	res, err := MultiStart(doubleWell, []float64{-1}, 30, 2.0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-2) > 0.05 {
		t.Errorf("global minimum at %v, want 2", res.X)
	}
}

func TestMultiStartZeroStart(t *testing.T) {
	f := func(x []float64) float64 { return x[0]*x[0] + (x[1]-1)*(x[1]-1) }
	res, err := MultiStart(f, []float64{0, 0}, 5, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.F > 1e-6 {
		t.Errorf("objective %v", res.F)
	}
}

func TestMultiStartPropagatesErrors(t *testing.T) {
	if _, err := MultiStart(nil, []float64{0}, 3, 0.1, 1); err == nil {
		t.Error("nil objective should error")
	}
}

// serialMultiStart is MultiStart as a serial loop: each perturbed start
// is drawn just before its minimization. It is the reference the pooled
// MultiStart must match bit for bit.
func serialMultiStart(f Objective, x0 []float64, restarts int, spread float64, seed uint64) (NMResult, error) {
	best, err := NelderMead(f, x0)
	if err != nil {
		return NMResult{}, err
	}
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
		res, err := NelderMead(f, x)
		if err != nil {
			return NMResult{}, err
		}
		if res.F < best.F {
			best = res
		}
	}
	return best, nil
}

// TestMultiStartMatchesSerial holds the pooled MultiStart to the serial
// loop: the same point bit for bit, the same objective value, iteration
// count and error, whichever start wins and in whatever order the pool
// finishes them.
func TestMultiStartMatchesSerial(t *testing.T) {
	objectives := []struct {
		name string
		f    Objective
		x0   []float64
	}{
		{"double-well", doubleWell, []float64{-1}},
		{"quadratic-4d", func(x []float64) float64 {
			s := 0.0
			for i, c := range []float64{1, -2, 0.5, 3} {
				s += float64(i+1) * (x[i] - c) * (x[i] - c)
			}
			return s
		}, []float64{0, 1, -2, 3}},
		{"half-undefined", func(x []float64) float64 {
			switch {
			case x[0] < 0 && x[1] < 0:
				return math.NaN()
			case x[0] < 0:
				return math.Inf(1)
			}
			return (x[0]-1)*(x[0]-1) + (x[1]-0.5)*(x[1]-0.5)
		}, []float64{0.2, -0.4}},
		{"nil", nil, []float64{1}},
	}
	for _, obj := range objectives {
		for _, restarts := range []int{0, 1, 8, 30} {
			for seed := uint64(1); seed <= 5; seed++ {
				name := fmt.Sprintf("%s/restarts=%d/seed=%d", obj.name, restarts, seed)
				want, werr := serialMultiStart(obj.f, obj.x0, restarts, 0.8, seed)
				got, gerr := MultiStart(obj.f, obj.x0, restarts, 0.8, seed)
				if fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Errorf("%s: error %v, want %v", name, gerr, werr)
					continue
				}
				if math.Float64bits(got.F) != math.Float64bits(want.F) || got.Iters != want.Iters ||
					len(got.X) != len(want.X) {
					t.Errorf("%s: F %v after %d iterations, want %v after %d", name, got.F, got.Iters, want.F, want.Iters)
					continue
				}
				for j := range want.X {
					if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
						t.Errorf("%s: X = %v, want %v", name, got.X, want.X)
						break
					}
				}
			}
		}
	}
}

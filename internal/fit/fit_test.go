package fit

import (
	"math"
	"testing"

	"archline/internal/machine"
	"archline/internal/microbench"
	"archline/internal/sim"
)

// runSuite produces a suite result for fitting tests.
func runSuite(t *testing.T, id machine.ID, noiseless bool) *microbench.Result {
	t.Helper()
	res, err := microbench.Run(machine.MustByID(id), microbench.DefaultConfig(),
		sim.Options{Seed: 11, Noiseless: noiseless})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Abs(want)
}

func TestPlatformFitRecoversTitanNoiseless(t *testing.T) {
	res := runSuite(t, machine.GTXTitan, true)
	pf, err := Platform(res, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	truth := machine.MustByID(machine.GTXTitan)
	checks := []struct {
		name      string
		got, want float64
		tol       float64
	}{
		{"tau_flop", float64(pf.Params.TauFlop), float64(truth.Single.TauFlop), 0.02},
		{"tau_mem", float64(pf.Params.TauMem), float64(truth.Single.TauMem), 0.02},
		{"eps_flop", float64(pf.Params.EpsFlop), float64(truth.Single.EpsFlop), 0.05},
		{"eps_mem", float64(pf.Params.EpsMem), float64(truth.Single.EpsMem), 0.05},
		{"pi_1", float64(pf.Params.Pi1), float64(truth.Single.Pi1), 0.05},
		{"delta_pi", float64(pf.Params.DeltaPi), float64(truth.Single.DeltaPi), 0.05},
		{"eps_d", float64(pf.DoubleEps), float64(truth.DoubleEps), 0.08},
	}
	for _, c := range checks {
		if relErr(c.got, c.want) > c.tol {
			t.Errorf("%s = %v, truth %v (rel err %.3f > %.3f)",
				c.name, c.got, c.want, relErr(c.got, c.want), c.tol)
		}
	}
	if pf.Residual > 0.02 {
		t.Errorf("noiseless residual %v should be tiny", pf.Residual)
	}
	// Cache levels recovered.
	if pf.L1 == nil || pf.L2 == nil {
		t.Fatal("Titan fit should include L1 and L2")
	}
	if relErr(float64(pf.L1.Eps), float64(truth.L1.Eps)) > 0.10 {
		t.Errorf("eps_L1 = %v, truth %v", pf.L1.Eps, truth.L1.Eps)
	}
	if relErr(float64(pf.L2.Eps), float64(truth.L2.Eps)) > 0.10 {
		t.Errorf("eps_L2 = %v, truth %v", pf.L2.Eps, truth.L2.Eps)
	}
	// Random access recovered.
	if pf.Rand == nil {
		t.Fatal("Titan fit should include random access")
	}
	if relErr(float64(pf.Rand.Rate), float64(truth.Rand.Rate)) > 0.05 {
		t.Errorf("rand rate = %v, truth %v", pf.Rand.Rate, truth.Rand.Rate)
	}
	if relErr(float64(pf.Rand.Eps), float64(truth.Rand.Eps)) > 0.10 {
		t.Errorf("eps_rand = %v, truth %v", pf.Rand.Eps, truth.Rand.Eps)
	}
}

func TestPlatformFitNoisy(t *testing.T) {
	// With realistic measurement noise the fit should still land within
	// ~10% of ground truth on the main parameters.
	res := runSuite(t, machine.GTXTitan, false)
	pf, err := Platform(res, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	truth := machine.MustByID(machine.GTXTitan).Single
	if relErr(float64(pf.Params.TauFlop), float64(truth.TauFlop)) > 0.10 {
		t.Errorf("tau_flop off by %v", relErr(float64(pf.Params.TauFlop), float64(truth.TauFlop)))
	}
	if relErr(float64(pf.Params.Pi1), float64(truth.Pi1)) > 0.10 {
		t.Errorf("pi_1 = %v, truth %v", pf.Params.Pi1, truth.Pi1)
	}
	if relErr(float64(pf.Params.DeltaPi), float64(truth.DeltaPi)) > 0.15 {
		t.Errorf("delta_pi = %v, truth %v", pf.Params.DeltaPi, truth.DeltaPi)
	}
}

func TestPlatformFitMobileBoard(t *testing.T) {
	// A low-power platform with very different magnitudes (watts vs
	// hundreds of watts) must fit equally well.
	res := runSuite(t, machine.ArndaleCPU, true)
	pf, err := Platform(res, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	truth := machine.MustByID(machine.ArndaleCPU).Single
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"tau_flop", float64(pf.Params.TauFlop), float64(truth.TauFlop)},
		{"tau_mem", float64(pf.Params.TauMem), float64(truth.TauMem)},
		{"pi_1", float64(pf.Params.Pi1), float64(truth.Pi1)},
		{"delta_pi", float64(pf.Params.DeltaPi), float64(truth.DeltaPi)},
	} {
		if relErr(c.got, c.want) > 0.08 {
			t.Errorf("%s = %v, truth %v", c.name, c.got, c.want)
		}
	}
}

func TestPlatformFitWithoutOptionalData(t *testing.T) {
	// NUC GPU: no double, no caches, no chase. Fit must succeed with only
	// the SP sweep and leave the optional outputs empty.
	res := runSuite(t, machine.NUCGPU, true)
	pf, err := Platform(res, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pf.DoubleEps != 0 {
		t.Error("no DP data: eps_d should stay 0")
	}
	if pf.L1 != nil || pf.L2 != nil || pf.Rand != nil {
		t.Error("no cache/chase data: optional fits should stay nil")
	}
	if pf.Params.Validate() != nil {
		t.Error("fitted params should validate")
	}
}

func TestPlatformFitInsufficientData(t *testing.T) {
	res := runSuite(t, machine.GTXTitan, true)
	res.Measurements = res.Measurements[:4]
	if _, err := Platform(res, Options{Seed: 5}); err == nil {
		t.Error("too few observations should error")
	}
}

func TestFitAllPlatformsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full 12-platform fit in -short mode")
	}
	// Every platform's fitted tau/pi values should land near ground
	// truth even with noise and quirks (the quirky platforms get looser
	// tolerances, as in the paper where their fits are the weakest).
	for _, plat := range machine.All() {
		res, err := microbench.Run(plat, microbench.DefaultConfig(), sim.Options{Seed: 21})
		if err != nil {
			t.Fatalf("%s: %v", plat.Name, err)
		}
		pf, err := Platform(res, Options{Seed: 6})
		if err != nil {
			t.Fatalf("%s: %v", plat.Name, err)
		}
		tol := 0.12
		if len(plat.Quirks) > 0 {
			tol = 0.30 // quirky hardware deviates from the clean physics
		}
		truth := plat.Single
		if relErr(float64(pf.Params.TauFlop), float64(truth.TauFlop)) > tol {
			t.Errorf("%s: tau_flop %v vs %v", plat.Name, pf.Params.TauFlop, truth.TauFlop)
		}
		if relErr(float64(pf.Params.TauMem), float64(truth.TauMem)) > tol {
			t.Errorf("%s: tau_mem %v vs %v", plat.Name, pf.Params.TauMem, truth.TauMem)
		}
		// pi_1 is unreliable on quirky platforms: the paper's own fits
		// land below observed idle power there (Table I's asterisks).
		if len(plat.Quirks) == 0 &&
			relErr(float64(pf.Params.Pi1), float64(truth.Pi1)) > tol {
			t.Errorf("%s: pi_1 %v vs %v", plat.Name, pf.Params.Pi1, truth.Pi1)
		}
	}
}

package fit

import (
	"math"
	"testing"

	"archline/internal/faults"
	"archline/internal/machine"
	"archline/internal/microbench"
	"archline/internal/model"
	"archline/internal/powermon"
	"archline/internal/sim"
	"archline/internal/stats"
	"archline/internal/units"
)

// runRobustSuite runs the fault-hardened pipeline under an injector.
func runRobustSuite(tb testing.TB, inj *faults.Injector, seed uint64) *microbench.Result {
	tb.Helper()
	res, _, err := microbench.RunRobust(machine.MustByID(machine.GTXTitan),
		microbench.DefaultConfig(),
		sim.Options{Seed: seed, Faults: inj, Sanitize: true},
		microbench.RobustConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// cappedPowerErrs is the fig. 4 statistic under a fitted model: the
// relative error of the capped power prediction per sweep measurement.
func cappedPowerErrs(res *microbench.Result, p model.Params) []float64 {
	var errs []float64
	for _, m := range res.Sweep(sim.Single) {
		measured := m.AvgPower.Watts()
		if measured <= 0 {
			continue
		}
		pred := p.AvgPowerAt(m.Intensity).Watts()
		errs = append(errs, (pred-measured)/measured)
	}
	return errs
}

// TestRobustPipelineRecoversUnderPaperFaults is the PR's acceptance
// bar: with the paper-plausible fault profile (≤2% dropped samples,
// ≤0.5% spikes, roughly one throttle event per run), the hardened
// measure→fit pipeline must recover the Table I energy and power
// constants within 5% of ground truth, and its fig. 4 validation
// statistic must be indistinguishable from a fault-free run's.
func TestRobustPipelineRecoversUnderPaperFaults(t *testing.T) {
	res := runRobustSuite(t, faults.New(faults.Paper(), 7), 42)
	pf, err := Platform(res, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	truth := machine.MustByID(machine.GTXTitan).Single
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"eps_flop", float64(pf.Params.EpsFlop), float64(truth.EpsFlop)},
		{"eps_mem", float64(pf.Params.EpsMem), float64(truth.EpsMem)},
		{"pi_1", float64(pf.Params.Pi1), float64(truth.Pi1)},
	} {
		if re := relErr(c.got, c.want); re > 0.05 {
			t.Errorf("%s = %v, truth %v (rel err %.3f > 0.05)", c.name, c.got, c.want, re)
		}
	}
	if pf.Grade > powermon.GradeB {
		t.Errorf("robust fit grade = %v under the paper profile", pf.Grade)
	}

	// KS validation: the capped-model power-error distribution under
	// faults must match the clean pipeline's.
	clean, err := microbench.Run(machine.MustByID(machine.GTXTitan),
		microbench.DefaultConfig(), sim.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cleanFit, err := Platform(clean, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ks, err := stats.KolmogorovSmirnov(
		cappedPowerErrs(res, pf.Params),
		cappedPowerErrs(clean, cleanFit.Params))
	if err != nil {
		t.Fatal(err)
	}
	if ks.Significant(0.05) {
		t.Errorf("fault-pipeline error distribution distinguishable from clean: %+v", ks)
	}
}

// TestNaivePipelineFailsUnderPaperFaults shows the hardening is load-
// bearing: the pre-existing naive path (no retry, no sanitization, no
// repeats, least squares only) must demonstrably fail under the same
// profile — either a hard transient error or constants pulled beyond
// the 5% acceptance band.
func TestNaivePipelineFailsUnderPaperFaults(t *testing.T) {
	inj := faults.New(faults.Paper(), 7)
	res, err := microbench.Run(machine.MustByID(machine.GTXTitan),
		microbench.DefaultConfig(), sim.Options{Seed: 42, Faults: inj})
	if err != nil {
		if !powermon.IsTransient(err) {
			t.Fatalf("naive failure should be a transient meter error, got %v", err)
		}
		return // died on a disconnect: the failure mode retries exist for
	}
	pf, err := Platform(res, Options{Seed: 2})
	if err != nil {
		return // fit blew up outright: also a demonstrated failure
	}
	truth := machine.MustByID(machine.GTXTitan).Single
	worst := 0.0
	for _, c := range [][2]float64{
		{float64(pf.Params.EpsFlop), float64(truth.EpsFlop)},
		{float64(pf.Params.EpsMem), float64(truth.EpsMem)},
		{float64(pf.Params.Pi1), float64(truth.Pi1)},
	} {
		if re := relErr(c[0], c[1]); re > worst {
			worst = re
		}
	}
	if worst <= 0.05 {
		t.Errorf("naive pipeline recovered constants within 5%% (worst %.3f) — fault profile too gentle to matter", worst)
	}
}

// TestRobustRefitOnSyntheticContamination exercises the Huber fallback
// in isolation: observations generated from known parameters with a
// contaminated minority must trip the diagnostics, switch estimators,
// and still recover the truth.
func TestRobustRefitOnSyntheticContamination(t *testing.T) {
	truth := machine.MustByID(machine.GTXTitan).Single
	mk := func(corrupt bool) *microbench.Result {
		res := &microbench.Result{
			Platform:  machine.MustByID(machine.GTXTitan),
			IdlePower: truth.Pi1,
		}
		for i := 0; i < 25; i++ {
			fpw := 0.5 * math.Pow(2048/0.5, float64(i)/24)
			w := units.Flops(fpw * 16e6)
			q := units.Bytes(4 * 16e6)
			tm := truth.Time(w, q)
			pw := truth.Energy(w, q).Over(tm)
			if corrupt && i%8 == 3 {
				pw *= 2.5 // an un-sanitized spike burst's bias
			}
			res.Measurements = append(res.Measurements, sim.Measurement{
				Platform: machine.GTXTitan, Kernel: "syn",
				Precision: sim.Single, Pattern: sim.StreamPattern,
				Level: model.LevelDRAM,
				W:     w, Q: q, Intensity: w.Intensity(q),
				Time: tm, Energy: units.Power(pw).For(tm), AvgPower: units.Power(pw),
			})
		}
		return res
	}
	cleanFit, err := Platform(mk(false), Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cleanFit.RobustApplied || cleanFit.Grade != powermon.GradeA {
		t.Errorf("clean synthetic fit flagged: robust=%v grade=%v contamination=%v",
			cleanFit.RobustApplied, cleanFit.Grade, cleanFit.Contamination)
	}
	dirtyFit, err := Platform(mk(true), Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !dirtyFit.RobustApplied {
		t.Fatalf("contaminated synthetic fit did not trigger the Huber refit (contamination %v)",
			dirtyFit.Contamination)
	}
	if dirtyFit.Grade != powermon.GradeB {
		t.Errorf("contaminated fit grade = %v, want B", dirtyFit.Grade)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"eps_flop", float64(dirtyFit.Params.EpsFlop), float64(truth.EpsFlop)},
		{"eps_mem", float64(dirtyFit.Params.EpsMem), float64(truth.EpsMem)},
		{"pi_1", float64(dirtyFit.Params.Pi1), float64(truth.Pi1)},
	} {
		if re := relErr(c.got, c.want); re > 0.05 {
			t.Errorf("robust %s = %v, truth %v (rel err %.3f)", c.name, c.got, c.want, re)
		}
	}
}

// BenchmarkFitPlatform times the fit stage of a fit job: Platform on
// one paper-profile gtx-titan suite result, measured before the timer
// starts.
func BenchmarkFitPlatform(b *testing.B) {
	res := runRobustSuite(b, faults.New(faults.Paper(), 7), 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Platform(res, Options{Seed: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

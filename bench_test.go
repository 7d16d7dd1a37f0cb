package archline

// One benchmark per table and figure of the paper, plus the ablation
// benches DESIGN.md calls out. Each table/figure bench runs the same
// driver the archline CLI uses and reports the experiment's headline
// numbers as custom metrics, so `go test -bench` regenerates the rows
// the paper reports.

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"archline/internal/experiments"
	"archline/internal/fit"
	"archline/internal/machine"
	"archline/internal/model"
	"archline/internal/powermon"
	"archline/internal/sim"
	"archline/internal/stats"
	"archline/internal/units"
)

// benchOpts keeps the per-iteration cost sane while exercising the full
// pipeline.
func benchOpts() experiments.Options {
	return experiments.Options{Seed: 42, SweepPoints: 15}
}

// BenchmarkTable1 regenerates Table I: the full microbenchmark suite and
// parameter fit on all twelve platforms.
func BenchmarkTable1(b *testing.B) {
	var last *experiments.TableIResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableI(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.MaxRelErr("pi_1"), "worst-pi1-relerr")
	b.ReportMetric(last.MaxRelErr("eps_mem"), "worst-epsmem-relerr")
}

// BenchmarkSuiteRun measures the Table I driver — the 12-platform
// measure+fit pipeline behind `archline table1` — at several widths of
// the two-level worker pool. workers=1 is the sequential baseline the
// speedup claims compare against; workers=0 lets pool.Clamp pick
// NumCPU. Outputs are bit-identical at every width (asserted by
// TestRunDeterministicAcrossWorkers), so the widths differ only in
// wall-clock.
func BenchmarkSuiteRun(b *testing.B) {
	widths := []int{1, 2, 4, 0}
	for _, workers := range widths {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = fmt.Sprintf("workers=max(%d)", runtime.NumCPU())
		}
		b.Run(name, func(b *testing.B) {
			opts := benchOpts()
			opts.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := experiments.TableI(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig1 regenerates the fig. 1 building-block comparison.
func BenchmarkFig1(b *testing.B) {
	var last *experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Comparison.AggCount), "arndale-gpus") // paper: 47
	b.ReportMetric(float64(last.Comparison.EnergyCrossover), "flopJ-crossover-I")
	b.ReportMetric(last.Comparison.MaxAggSpeedup, "agg-max-speedup") // paper: 1.6
}

// BenchmarkFig4 regenerates the capped-vs-uncapped error study with K-S
// significance testing.
func BenchmarkFig4(b *testing.B) {
	opts := benchOpts()
	opts.Replicates = 4
	var last *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.SignificantCount()), "ks-significant") // paper: 7
}

// BenchmarkFig5 regenerates the twelve power-vs-intensity panels.
func BenchmarkFig5(b *testing.B) {
	var last *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	worst := 0.0
	for _, p := range last.Panels {
		if p.MaxAbsErr > worst {
			worst = p.MaxAbsErr
		}
	}
	b.ReportMetric(worst, "worst-model-err") // paper: < 0.15
}

// BenchmarkFig6 regenerates the power-under-caps figure.
func BenchmarkFig6(b *testing.B) {
	benchThrottle(b, experiments.ThrottlePower)
}

// BenchmarkFig7a regenerates the performance-under-caps figure.
func BenchmarkFig7a(b *testing.B) {
	benchThrottle(b, experiments.ThrottlePerf)
}

// BenchmarkFig7b regenerates the energy-efficiency-under-caps figure.
func BenchmarkFig7b(b *testing.B) {
	benchThrottle(b, experiments.ThrottleEff)
}

func benchThrottle(b *testing.B, q experiments.ThrottleQuantity) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Throttle(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPowerBounding regenerates the section V-D bounding analysis.
func BenchmarkPowerBounding(b *testing.B) {
	var last *experiments.ScenariosResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Scenarios()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Bounding.SmallCount), "arndale-gpus") // paper: 23
	b.ReportMetric(last.Bounding.BigPerfRatio, "titan-perf-ratio")    // paper: 0.31
	b.ReportMetric(last.Bounding.SmallVsBig, "assembly-speedup")      // paper: ~2.8
}

// --- Ablation benches (DESIGN.md section 4) ---

// BenchmarkModelCappedVsUncapped measures the cost and the accuracy gap
// of the paper's headline model change on a heavily-capped platform.
func BenchmarkModelCappedVsUncapped(b *testing.B) {
	p := machine.MustByID(machine.ArndaleGPU).Single
	grid := model.LogSpace(0.125, 512, 256)
	b.Run("capped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, x := range grid {
				_ = p.AvgPowerAt(x)
			}
		}
	})
	b.Run("uncapped", func(b *testing.B) {
		w := units.Flops(1e9)
		for i := 0; i < b.N; i++ {
			for _, x := range grid {
				q := x.Bytes(w)
				_ = p.EnergyUncapped(w, q).Over(p.TimeUncapped(w, q))
			}
		}
	})
}

// BenchmarkHierarchyAblation compares per-level energy accounting against
// a flat eps_mem model on cache-resident traffic.
func BenchmarkHierarchyAblation(b *testing.B) {
	plat := machine.MustByID(machine.GTXTitan)
	h := plat.Hierarchy()
	w := units.GFlops(10)
	traffic := []model.LevelTraffic{
		{Level: model.LevelL1, Bytes: units.GB(16)},
		{Level: model.LevelL2, Bytes: units.GB(4)},
		{Level: model.LevelDRAM, Bytes: units.GB(1)},
	}
	b.Run("per-level", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := h.Energy(w, traffic); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("flat", func(b *testing.B) {
		q := units.GB(21)
		for i := 0; i < b.N; i++ {
			_ = plat.Single.Energy(w, q)
		}
	})
}

// BenchmarkSamplingRate measures energy-integration error versus the
// meter's sampling rate, ablating PowerMon 2's 1024 Hz choice.
func BenchmarkSamplingRate(b *testing.B) {
	// Bursty load: 5 ms spikes of +300 W every 37 ms on a 100 W floor
	// (duty cycle 13.5%, true average 140.5 W). Slow meters alias the
	// bursts; PowerMon's 1024 Hz resolves them.
	sig := func(t units.Time) units.Power {
		phase := math.Mod(float64(t), 0.037) / 0.037
		if phase < 0.135 {
			return 400
		}
		return 100
	}
	const trueAvg = 100 + 300*0.135
	for _, rate := range []float64{64, 256, 1024, 4096} {
		b.Run(units.FormatSI(rate, "Hz", 4), func(b *testing.B) {
			m := powermon.MobileBoardMeter()
			m.SampleRate = rate
			m.MaxAggregate = 0
			m.Channels[0].CalibGain = 1
			m.Channels[0].NoiseSD = 0
			var tr *powermon.Trace
			for i := 0; i < b.N; i++ {
				var err error
				tr, err = m.Record(sig, 0.5, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			err := math.Abs(float64(tr.AvgPower()) - trueAvg)
			b.ReportMetric(err, "watts-error")
		})
	}
}

// --- Hot-path micro-benchmarks ---

// BenchmarkModelEval measures a single eq. (7) evaluation.
func BenchmarkModelEval(b *testing.B) {
	p := machine.MustByID(machine.GTXTitan).Single
	for i := 0; i < b.N; i++ {
		_ = p.AvgPowerAt(units.Intensity(4))
	}
}

// BenchmarkSimMeasure measures one simulated kernel measurement
// end-to-end (physics + power-trace sampling).
func BenchmarkSimMeasure(b *testing.B) {
	s := sim.New(machine.MustByID(machine.GTXTitan), sim.Options{Seed: 1})
	k := sim.Kernel{
		Name: "bench", Precision: sim.Single, Pattern: sim.StreamPattern,
		FlopsPerWord: 32, WorkingSet: units.MiB(64), Passes: 4,
	}
	for i := 0; i < b.N; i++ {
		if _, err := s.Measure(k); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKSTest measures the two-sample K-S test on fig. 4-sized
// samples.
func BenchmarkKSTest(b *testing.B) {
	rng := stats.NewStream(1, "bench-ks")
	xs := make([]float64, 100)
	ys := make([]float64, 100)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = rng.NormFloat64() + 0.3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.KolmogorovSmirnov(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNelderMead measures one 4-parameter model fit objective
// minimization.
func BenchmarkNelderMead(b *testing.B) {
	f := func(x []float64) float64 {
		s := 0.0
		for j, v := range x {
			d := v - float64(j)
			s += d * d
		}
		return s
	}
	x0 := []float64{5, 5, 5, 5}
	for i := 0; i < b.N; i++ {
		if _, err := fit.NelderMead(f, x0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPowermonRecord measures a 0.25 s three-rail recording.
func BenchmarkPowermonRecord(b *testing.B) {
	m := powermon.PCIeGPUMeter()
	rng := stats.NewStream(1, "bench-rec")
	for i := 0; i < b.N; i++ {
		if _, err := m.Record(powermon.Constant(250), 0.25, rng); err != nil {
			b.Fatal(err)
		}
	}
}

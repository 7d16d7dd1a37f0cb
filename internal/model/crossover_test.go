package model

import (
	"math"
	"testing"
)

func TestLogSpace(t *testing.T) {
	g := LogSpace(0.125, 256, 12)
	if len(g) != 12 {
		t.Fatalf("len = %d", len(g))
	}
	approx(t, float64(g[0]), 0.125, 1e-12, "first")
	approx(t, float64(g[11]), 256, 1e-12, "last")
	// Uniform ratio between neighbours.
	r0 := float64(g[1]) / float64(g[0])
	for i := 2; i < len(g); i++ {
		r := float64(g[i]) / float64(g[i-1])
		approx(t, r, r0, 1e-9, "ratio")
	}
	if LogSpace(0, 1, 5) != nil {
		t.Error("lo=0 should return nil")
	}
	if LogSpace(2, 1, 5) != nil {
		t.Error("hi<lo should return nil")
	}
	if got := LogSpace(3, 5, 1); len(got) != 1 || got[0] != 3 {
		t.Error("n=1 returns lo")
	}
	if LogSpace(1, 2, 0) != nil {
		t.Error("n=0 should return nil")
	}
}

func TestCrossoverEnergyTitanVsArndale(t *testing.T) {
	// Fig. 1 middle panel: "the two systems match in flops per Joule for
	// intensities as high as 4 flop:Byte". Below the crossover the
	// Arndale GPU is at least competitive; above it the Titan wins.
	titan, arndale := titanParams(), arndaleGPUParams()
	x, err := Crossover(titan, arndale, MetricFlopsPerJoule, 0.125, 256)
	if err != nil {
		t.Fatalf("crossover: %v", err)
	}
	if float64(x) < 1.5 || float64(x) > 8 {
		t.Errorf("energy crossover at I=%v, paper says ~4", x)
	}
	// Above the crossover Titan is more energy-efficient.
	if !(titan.FlopsPerJouleAt(x*4) > arndale.FlopsPerJouleAt(x*4)) {
		t.Error("Titan should win on energy above the crossover")
	}
	// Titan always wins on raw performance.
	for _, i := range LogSpace(0.125, 256, 50) {
		if !(titan.FlopRateAt(i) > arndale.FlopRateAt(i)) {
			t.Fatalf("Titan should be faster at every intensity, failed at %v", i)
		}
	}
}

func TestCrossoverErrors(t *testing.T) {
	titan := titanParams()
	if _, err := Crossover(titan, titan, MetricFlopRate, 0, 1); err == nil {
		t.Error("lo=0 should error")
	}
	if _, err := Crossover(titan, titan, MetricFlopRate, 2, 1); err == nil {
		t.Error("hi<lo should error")
	}
	// Titan vs Titan: identical metrics -> f0 == 0 -> returns lo.
	x, err := Crossover(titan, titan, MetricFlopRate, 1, 2)
	if err != nil || x != 1 {
		t.Errorf("identical machines: x=%v err=%v, want lo", x, err)
	}
	// Titan vs Arndale on flop rate: no crossover (Titan always faster).
	if _, err := Crossover(titan, arndaleGPUParams(), MetricFlopRate, 0.125, 256); err != ErrNoCrossover {
		t.Errorf("expected ErrNoCrossover, got %v", err)
	}
}

func TestCrossoversScan(t *testing.T) {
	titan, arndale := titanParams(), arndaleGPUParams()
	// Aggregate 47 Arndale GPUs: power-matched supercomputer of fig. 1.
	agg, err := arndale.Scale(47)
	if err != nil {
		t.Fatal(err)
	}
	grid := LogSpace(0.125, 256, 400)
	xs := CrossoversOnGrid(titan, agg, MetricFlopRate, grid)
	if len(xs) == 0 {
		t.Fatal("power-matched aggregate should cross Titan in performance")
	}
	// The paper: aggregate wins ("up to 1.6x") for bandwidth-bound codes
	// with flop:Byte less than about 4, loses above.
	x := float64(xs[0])
	if x < 1 || x > 16 {
		t.Errorf("performance crossover at I=%v, expected a few flop:Byte", x)
	}
	if !(agg.FlopRateAt(0.25) > titan.FlopRateAt(0.25)) {
		t.Error("aggregate should win at I=0.25")
	}
	if !(titan.FlopRateAt(128) > agg.FlopRateAt(128)) {
		t.Error("Titan should win at I=128")
	}
	if CrossoversOnGrid(titan, agg, MetricFlopRate, grid[:1]) != nil {
		t.Error("a one-point grid should return nil")
	}
}

func TestPowerMatch(t *testing.T) {
	titan, arndale := titanParams(), arndaleGPUParams()
	k, err := PowerMatch(titan, arndale)
	if err != nil {
		t.Fatal(err)
	}
	// Peak powers: Titan 123+164 = 287 W; Arndale 1.28+4.83 = 6.11 W.
	// 287/6.11 = 47.0 -> the paper's "47 x Arndale GPU" label.
	if k != 47 {
		t.Errorf("PowerMatch = %d, want 47 (fig. 1 label)", k)
	}
	// Small bigger than big: one copy suffices.
	k, err = PowerMatch(arndale, titan)
	if err != nil || k != 1 {
		t.Errorf("reverse match = %d, %v; want 1", k, err)
	}
	var zero Params
	if _, err := PowerMatch(titan, zero); err == nil {
		t.Error("zero-power small machine should error")
	}
}

func TestMetricString(t *testing.T) {
	if MetricFlopRate.String() != "flop/time" ||
		MetricFlopsPerJoule.String() != "flop/energy" ||
		MetricAvgPower.String() != "power" ||
		Metric(9).String() != "unknown" {
		t.Error("metric names")
	}
	if !math.IsNaN(titanParams().valueAt(Metric(9), 1)) {
		t.Error("unknown metric should evaluate to NaN")
	}
	if got := titanParams().MetricAt(MetricAvgPower, 1); got != float64(titanParams().AvgPowerAt(1)) {
		t.Error("MetricAt should match AvgPowerAt")
	}
}

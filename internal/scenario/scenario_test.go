package scenario

import (
	"math"
	"testing"

	"archline/internal/machine"
	"archline/internal/model"
	"archline/internal/units"
)

func titan() model.Params { return machine.MustByID(machine.GTXTitan).Single }
func mali() model.Params  { return machine.MustByID(machine.ArndaleGPU).Single }

func TestCompareBlocksFig1(t *testing.T) {
	bc, err := CompareBlocks("GTX Titan", titan(), "Arndale GPU", mali(), 0.125, 256, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 1's headline label: "47 x Arndale GPU".
	if bc.AggCount != 47 {
		t.Errorf("aggregate count = %d, paper labels 47", bc.AggCount)
	}
	// Energy crossover "as high as 4 flop:Byte".
	if bc.EnergyCrossover == 0 {
		t.Fatal("expected an energy crossover")
	}
	if x := float64(bc.EnergyCrossover); x < 1.5 || x > 8 {
		t.Errorf("energy crossover at %v, paper says ~4", x)
	}
	// Aggregate wins below ~4 flop:Byte, loses above.
	if bc.AggPerfCrossover == 0 {
		t.Fatal("expected an aggregate performance crossover")
	}
	if x := float64(bc.AggPerfCrossover); x < 1 || x > 16 {
		t.Errorf("perf crossover at %v, paper says ~4", x)
	}
	// "up to 1.6x" bandwidth-bound speedup.
	if bc.MaxAggSpeedup < 1.3 || bc.MaxAggSpeedup > 2.0 {
		t.Errorf("max aggregate speedup %v, paper says up to 1.6x", bc.MaxAggSpeedup)
	}
	// "less than 1/2" of the Titan's peak.
	if bc.AggPeakFraction >= 0.5 {
		t.Errorf("aggregate peak fraction %v, paper says < 1/2", bc.AggPeakFraction)
	}
	// Series shapes.
	for _, s := range [][3]Series{bc.Perf, bc.Eff, bc.Power} {
		for _, ser := range s {
			if len(ser.Points) != 100 {
				t.Fatalf("series %s has %d points", ser.Name, len(ser.Points))
			}
		}
	}
	if bc.Perf[2].Name != "47x Arndale GPU" {
		t.Errorf("aggregate series name %q", bc.Perf[2].Name)
	}
}

func TestCompareBlocksErrors(t *testing.T) {
	var bad model.Params
	if _, err := CompareBlocks("a", bad, "b", mali(), 0.1, 10, 10); err == nil {
		t.Error("invalid machine A should error")
	}
	if _, err := CompareBlocks("a", titan(), "b", bad, 0.1, 10, 10); err == nil {
		t.Error("invalid machine B should error")
	}
	if _, err := CompareBlocks("a", titan(), "b", mali(), 0, 10, 10); err == nil {
		t.Error("bad grid should error")
	}
}

func TestThrottleSweepFig6(t *testing.T) {
	grid := model.LogSpace(0.25, 128, 60)
	fracs := []float64{1, 0.5, 0.25, 0.125}
	curves, err := ThrottleSweep(titan(), fracs, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 4 {
		t.Fatalf("got %d curves", len(curves))
	}
	// Tighter caps never increase power, performance, or efficiency...
	// (efficiency can only degrade or stay equal under a tighter cap).
	for k := range grid {
		for c := 1; c < len(curves); c++ {
			if curves[c].Points[k].Power > curves[c-1].Points[k].Power+1e-9 {
				t.Errorf("power increased under tighter cap at I=%v", grid[k])
			}
			if curves[c].Points[k].Perf > curves[c-1].Points[k].Perf*(1+1e-9) {
				t.Errorf("perf increased under tighter cap at I=%v", grid[k])
			}
			if float64(curves[c].Points[k].Eff) > float64(curves[c-1].Points[k].Eff)*(1+1e-9) {
				t.Errorf("efficiency increased under tighter cap at I=%v", grid[k])
			}
		}
	}
	// At DeltaPi/8 the cap regime covers (almost) the whole sweep.
	capped := 0
	for _, pt := range curves[3].Points {
		if pt.Regime == model.CapBound {
			capped++
		}
	}
	if capped < len(grid)*3/4 {
		t.Errorf("DeltaPi/8 should be cap-bound almost everywhere, got %d/%d", capped, len(grid))
	}

	if _, err := ThrottleSweep(titan(), nil, grid); err == nil {
		t.Error("empty fractions should error")
	}
	if _, err := ThrottleSweep(titan(), fracs, nil); err == nil {
		t.Error("empty grid should error")
	}
	var bad model.Params
	if _, err := ThrottleSweep(bad, fracs, grid); err == nil {
		t.Error("invalid machine should error")
	}
	if _, err := ThrottleSweep(titan(), []float64{-1}, grid); err == nil {
		t.Error("negative fraction should error")
	}
}

func TestPowerReduction(t *testing.T) {
	// Section V-D: reducing DeltaPi by k reduces overall power by less
	// than k, because pi_1 remains.
	for _, frac := range []float64{0.5, 0.25, 0.125} {
		r, err := PowerReduction(titan(), frac)
		if err != nil {
			t.Fatal(err)
		}
		if r <= frac || r >= 1 {
			t.Errorf("power reduction to %v of cap gives ratio %v; want frac < ratio < 1", frac, r)
		}
	}
	// The Arndale GPU (lowest pi_1 share) reduces the most; the Xeon Phi
	// (highest pi_1 share) the least — the paper's observation.
	rMali, _ := PowerReduction(mali(), 0.125)
	rPhi, _ := PowerReduction(machine.MustByID(machine.XeonPhi).Single, 0.125)
	if rMali >= rPhi {
		t.Errorf("Arndale GPU ratio %v should be below Xeon Phi %v", rMali, rPhi)
	}
	if _, err := PowerReduction(titan(), -1); err == nil {
		t.Error("negative fraction should error")
	}
}

func TestStreamingEnergyRankingSectionVB(t *testing.T) {
	ranking := StreamingEnergyRanking(machine.All())
	if len(ranking) != 12 {
		t.Fatalf("got %d entries", len(ranking))
	}
	// Ascending total.
	for i := 1; i < len(ranking); i++ {
		if ranking[i].Total < ranking[i-1].Total {
			t.Fatal("ranking not ascending")
		}
	}
	pos := map[machine.ID]int{}
	totals := map[machine.ID]float64{}
	for i, r := range ranking {
		pos[r.ID] = i
		totals[r.ID] = float64(r.Total)
		if math.Abs(float64(r.EpsMem)+float64(r.ConstCharge)-float64(r.Total)) > 1e-18 {
			t.Errorf("%s: components do not sum", r.Name)
		}
	}
	// The inversion: Arndale GPU beats Titan beats Phi on total, even
	// though Phi has the lowest raw eps_mem.
	if !(pos[machine.ArndaleGPU] < pos[machine.GTXTitan] && pos[machine.GTXTitan] < pos[machine.XeonPhi]) {
		t.Error("section V-B ordering Arndale < Titan < Phi violated")
	}
	// Paper's numbers: 671 pJ/B, 782 pJ/B, 1.13 nJ/B.
	if math.Abs(totals[machine.ArndaleGPU]-671e-12) > 0.02*671e-12 {
		t.Errorf("Arndale total %v, paper 671 pJ/B", totals[machine.ArndaleGPU])
	}
	if math.Abs(totals[machine.GTXTitan]-782e-12) > 0.02*782e-12 {
		t.Errorf("Titan total %v, paper 782 pJ/B", totals[machine.GTXTitan])
	}
	if math.Abs(totals[machine.XeonPhi]-1.13e-9) > 0.02*1.13e-9 {
		t.Errorf("Phi total %v, paper 1.13 nJ/B", totals[machine.XeonPhi])
	}
}

func TestConstantPowerAnalysisSectionVC(t *testing.T) {
	st, err := ConstantPowerAnalysis(machine.All(), 0.125, 512)
	if err != nil {
		t.Fatal(err)
	}
	if st.OverHalf != 7 {
		t.Errorf("constant power > 50%% on %d platforms, paper says 7", st.OverHalf)
	}
	if st.Correlation > -0.4 || st.Correlation < -0.8 {
		t.Errorf("correlation %v, paper reports about -0.6", st.Correlation)
	}
	// Within-platform power range "less than 2x" — with a little slack
	// for the model tails beyond the measured range.
	for id, r := range st.PowerRange {
		if r < 1 || r > 2.1 {
			t.Errorf("%s: power range %v, paper says < 2x", id, r)
		}
	}
	if _, err := ConstantPowerAnalysis(machine.All()[:1], 0.1, 10); err == nil {
		t.Error("single platform should error")
	}
}

func TestPowerBoundSectionVD(t *testing.T) {
	// The paper's "140 Watts per node" is half the Titan's 287 W peak,
	// rounded down; half-peak is exactly the DeltaPi/8 setting it quotes.
	budget := units.Power(float64(titan().PeakAvgPower()) / 2)
	res, err := PowerBound(titan(), mali(), budget, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	// "This corresponds to a power cap setting of DeltaPi/8": 140 W =
	// 123 W pi_1 + ~17 W cap, i.e. frac ~ 1/8 to 1/9.
	if res.CapFrac < 0.08 || res.CapFrac > 0.16 {
		t.Errorf("cap fraction %v, paper says ~1/8", res.CapFrac)
	}
	// "approximately 0.31x at I = 0.25".
	if math.Abs(res.BigPerfRatio-0.31) > 0.05 {
		t.Errorf("throttled Titan perf ratio %v, paper says ~0.31", res.BigPerfRatio)
	}
	// "assembling 23 Arndale GPUs will match 140 Watts".
	if res.SmallCount != 23 {
		t.Errorf("small count %d, paper says 23", res.SmallCount)
	}
	// "approximately 2.8x faster at I = 0.25" — our reconstruction gives
	// ~2.6x with Table I constants; accept the band.
	if res.SmallVsBig < 2.2 || res.SmallVsBig > 3.2 {
		t.Errorf("assembly vs throttled Titan %v, paper says ~2.8x", res.SmallVsBig)
	}
	// Better than fig. 1's 1.6x whole-power scenario.
	if res.SmallVsBig <= 1.6 {
		t.Error("power bounding should beat the fig. 1 full-power scenario")
	}
}

func TestPowerBoundErrors(t *testing.T) {
	if _, err := PowerBound(titan(), mali(), 100, 0.25); err == nil {
		t.Error("budget below pi_1 should error")
	}
	if _, err := PowerBound(titan(), mali(), 140, 0); err == nil {
		t.Error("zero intensity should error")
	}
	if _, err := PowerBound(titan(), titan(), 140, 0.25); err == nil {
		t.Error("budget below one small machine should error")
	}
	var bad model.Params
	if _, err := PowerBound(bad, mali(), 140, 0.25); err == nil {
		t.Error("invalid big machine should error")
	}
	if _, err := PowerBound(titan(), bad, 140, 0.25); err == nil {
		t.Error("invalid small machine should error")
	}
	// Budget above full power: frac clamps to 1.
	res, err := PowerBound(titan(), mali(), 400, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if res.CapFrac != 1 {
		t.Errorf("cap fraction %v, want clamped to 1", res.CapFrac)
	}
	if math.Abs(res.BigPerfRatio-1) > 1e-9 {
		t.Error("unthrottled ratio should be 1")
	}
}

func TestSweepMetric(t *testing.T) {
	grid := model.LogSpace(1, 4, 3)
	k := model.NewKernel(titan())
	s := sweepKernel(nil, "titan", &k, model.MetricAvgPower, grid)
	if s.Name != "titan" || len(s.Points) != 3 {
		t.Fatal("series shape")
	}
	for k, pt := range s.Points {
		if pt.I != grid[k] {
			t.Error("grid mismatch")
		}
		want := float64(titan().AvgPowerAt(pt.I))
		if pt.Value != want {
			t.Error("metric value mismatch")
		}
	}
}

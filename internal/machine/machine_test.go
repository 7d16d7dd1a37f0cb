package machine

import (
	"math"
	"testing"

	"archline/internal/model"
	"archline/internal/units"
)

func TestAllTwelvePlatforms(t *testing.T) {
	ps := All()
	if len(ps) != 12 {
		t.Fatalf("Table I has 12 platforms, got %d", len(ps))
	}
	seen := map[ID]bool{}
	for _, p := range ps {
		if seen[p.ID] {
			t.Errorf("duplicate platform ID %q", p.ID)
		}
		seen[p.ID] = true
		if p.Name == "" || p.Processor == "" {
			t.Errorf("%s: missing name/processor", p.ID)
		}
		if err := p.Single.Validate(); err != nil {
			t.Errorf("%s: invalid fitted params: %v", p.Name, err)
		}
	}
	// Exactly 4 asterisked platforms (fitted pi_1 below idle): NUC GPU,
	// GTX 580, GTX 680, Arndale GPU.
	stars := 0
	for _, p := range ps {
		if p.FittedPi1BelowIdle {
			stars++
			if float64(p.Single.Pi1) >= float64(p.IdlePower) {
				t.Errorf("%s: asterisk claims fitted pi_1 < idle but %v >= %v",
					p.Name, p.Single.Pi1, p.IdlePower)
			}
		}
	}
	if stars != 4 {
		t.Errorf("Table I marks 4 platforms with '*', got %d", stars)
	}
}

func TestAllReturnsFreshCopies(t *testing.T) {
	a := All()
	a[0].Name = "mutated"
	if All()[0].Name == "mutated" {
		t.Error("All must return fresh copies")
	}
}

func TestByID(t *testing.T) {
	p, err := ByID(GTXTitan)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "GTX Titan" {
		t.Errorf("got %q", p.Name)
	}
	if _, err := ByID("no-such"); err == nil {
		t.Error("unknown ID should error")
	}
	if MustByID(ArndaleGPU).Name != "Arndale GPU" {
		t.Error("MustByID")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustByID should panic on unknown ID")
		}
	}()
	MustByID("nope")
}

func TestEpsL1LeqEpsL2Invariant(t *testing.T) {
	// Section V-B: "eps_L1 <= eps_L2 for every system".
	for _, p := range All() {
		if p.L1 != nil && p.L2 != nil && p.L1.Eps > p.L2.Eps {
			t.Errorf("%s: eps_L1 (%v) > eps_L2 (%v)", p.Name, p.L1.Eps, p.L2.Eps)
		}
		if err := p.Hierarchy().Validate(); err != nil {
			t.Errorf("%s: hierarchy invalid: %v", p.Name, err)
		}
	}
}

func TestRandomAccessEnergyOrderOfMagnitude(t *testing.T) {
	// Section V-B: "we expect this cost to be at least an order of
	// magnitude higher than eps_mem, as table I reflects" — eps_rand in
	// J/access vs eps_mem in J/B.
	for _, p := range All() {
		if p.Rand == nil {
			continue
		}
		if float64(p.Rand.Eps) < 10*float64(p.Single.EpsMem) {
			t.Errorf("%s: eps_rand %v J/access not >= 10x eps_mem %v J/B",
				p.Name, float64(p.Rand.Eps), float64(p.Single.EpsMem))
		}
	}
	// And the Phi anomaly the conclusions highlight: Xeon Phi's random
	// access energy is at least an order of magnitude below every other
	// measured platform.
	phi := MustByID(XeonPhi)
	for _, p := range All() {
		if p.Rand == nil || p.ID == XeonPhi {
			continue
		}
		if float64(p.Rand.Eps) < 8*float64(phi.Rand.Eps) {
			t.Errorf("%s eps_rand %v should be ~10x Phi's %v", p.Name, p.Rand.Eps, phi.Rand.Eps)
		}
	}
}

func TestSustainedBelowVendorPeak(t *testing.T) {
	for _, p := range All() {
		f, bw := p.SustainedFraction()
		if f <= 0 || f > 1.005 { // Phi reports 100%
			t.Errorf("%s: sustained flop fraction %v out of (0,1]", p.Name, f)
		}
		if bw <= 0 || bw > 1.005 {
			t.Errorf("%s: sustained bw fraction %v out of (0,1]", p.Name, bw)
		}
	}
}

func TestConstantPowerShareSectionVC(t *testing.T) {
	// Section V-C: pi_1/(pi_1+DeltaPi) > 50% on 7 of the 12 platforms.
	over := 0
	for _, p := range All() {
		s := p.ConstantPowerShare()
		if s < 0 || s > 1 {
			t.Errorf("%s: share %v out of range", p.Name, s)
		}
		if s > 0.5 {
			over++
		}
	}
	if over != 7 {
		t.Errorf("constant power exceeds 50%% on %d platforms, paper says 7", over)
	}
}

func TestPeakEfficiencyMatchesPaper(t *testing.T) {
	// Derived peak Gflop/J should match fig. 5's panel headers within 10%
	// (the paper rounds to 2 significant digits).
	for _, p := range All() {
		got := float64(p.Single.PeakFlopsPerJoule())
		want := float64(p.Paper.PeakFlopsPerJoule)
		if math.Abs(got-want) > 0.10*want {
			t.Errorf("%s: peak efficiency %v flop/J, paper reports %v", p.Name, got, want)
		}
	}
}

func TestFig5PanelOrder(t *testing.T) {
	order := ByPeakEfficiency()
	wantFirst, wantLast := GTXTitan, DesktopCPU
	if order[0].ID != wantFirst {
		t.Errorf("most efficient should be %s, got %s", wantFirst, order[0].ID)
	}
	if order[len(order)-1].ID != wantLast && order[len(order)-1].ID != APUCPU {
		// Desktop CPU (620 Mflop/J) and APU CPU (650 Mflop/J) are within
		// rounding of each other; accept either in last place but Desktop
		// must be in the bottom two.
		t.Errorf("least efficient should be Desktop CPU or APU CPU, got %s", order[len(order)-1].ID)
	}
	// Monotone non-increasing.
	for i := 1; i < len(order); i++ {
		if order[i].Single.PeakFlopsPerJoule() > order[i-1].Single.PeakFlopsPerJoule() {
			t.Errorf("order not sorted at %d: %s > %s", i, order[i].Name, order[i-1].Name)
		}
	}
}

func TestFig4RankAndSignificance(t *testing.T) {
	wantOrder := []ID{ArndaleGPU, NUCGPU, ArndaleCPU, GTX680, PandaBoard, GTXTitan,
		GTX580, XeonPhi, DesktopCPU, NUCCPU, APUGPU, APUCPU}
	for i, id := range wantOrder {
		if got := MustByID(id).Paper.Fig4Rank; got != i+1 {
			t.Errorf("%s: fig. 4 rank %d, want %d", id, got, i+1)
		}
	}
	// 7 of 12 platforms significant by K-S.
	sig := 0
	for _, p := range All() {
		if p.Paper.KSSignificant {
			sig++
		}
	}
	if sig != 7 {
		t.Errorf("fig. 4 marks 7 platforms '**', got %d", sig)
	}
}

func TestDoubleParams(t *testing.T) {
	titan := MustByID(GTXTitan)
	d, err := titan.DoubleParams()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(d.PeakFlopRate())-1600e9) > 1e-3*1600e9 {
		t.Errorf("Titan double rate = %v, want 1.6 Tflop/s", d.PeakFlopRate())
	}
	if d.EpsFlop != units.PicoJoulePerFlop(93.9) {
		t.Errorf("Titan eps_d = %v", d.EpsFlop)
	}
	// Memory side shared with single.
	if d.TauMem != titan.Single.TauMem || d.EpsMem != titan.Single.EpsMem {
		t.Error("double params should share the memory side")
	}
	// GPUs without double support.
	for _, id := range []ID{NUCGPU, APUGPU, ArndaleGPU} {
		p := MustByID(id)
		if p.SupportsDouble() {
			t.Errorf("%s should not support double", p.Name)
		}
		if _, err := p.DoubleParams(); err == nil {
			t.Errorf("%s: DoubleParams should error", p.Name)
		}
	}
	// The rest do.
	for _, id := range []ID{DesktopCPU, NUCCPU, APUCPU, GTX580, GTX680, GTXTitan, XeonPhi, PandaBoard, ArndaleCPU} {
		if !MustByID(id).SupportsDouble() {
			t.Errorf("%s should support double", id)
		}
	}
}

func TestHierarchyLevels(t *testing.T) {
	titan := MustByID(GTXTitan)
	h := titan.Hierarchy()
	if _, err := h.ParamsFor(model.LevelL1); err != nil {
		t.Error("Titan should have L1 (shared memory) parameters")
	}
	if _, err := h.ParamsFor(model.LevelL2); err != nil {
		t.Error("Titan should have L2 parameters")
	}
	// NUC GPU measured no cache levels (OpenCL driver deficiency).
	nuc := MustByID(NUCGPU)
	if len(nuc.Hierarchy().Levels) != 0 {
		t.Error("NUC GPU should have no cache-level data")
	}
	// Scratchpad-only platforms have L1 but no L2 data.
	for _, id := range []ID{APUGPU, ArndaleGPU} {
		p := MustByID(id)
		if p.L1 == nil || p.L2 != nil {
			t.Errorf("%s should have L1 (scratchpad) only", p.Name)
		}
	}
}

func TestQuirks(t *testing.T) {
	if !MustByID(NUCGPU).HasQuirk(QuirkOSInterference) {
		t.Error("NUC GPU should have the OS-interference quirk")
	}
	if !MustByID(ArndaleGPU).HasQuirk(QuirkUtilizationScaling) {
		t.Error("Arndale GPU should have the utilisation-scaling quirk")
	}
	if MustByID(GTXTitan).HasQuirk(QuirkOSInterference) {
		t.Error("Titan should have no quirks")
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{
		ClassDesktop: "desktop", ClassMini: "mini", ClassMobile: "mobile",
		ClassCoprocessor: "coprocessor", Class(42): "unknown",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
}

func TestCorrelationOfConstantShareWithEfficiency(t *testing.T) {
	// Section V-C: the pi_1 fraction correlates with peak
	// energy-efficiency at about -0.6.
	var shares, eff []float64
	for _, p := range All() {
		shares = append(shares, p.ConstantPowerShare())
		eff = append(eff, float64(p.Single.PeakFlopsPerJoule()))
	}
	r := pearson(shares, eff)
	if r > -0.4 || r < -0.8 {
		t.Errorf("correlation = %v, paper reports about -0.6", r)
	}
}

// pearson is a local correlation helper (avoiding an import cycle with
// internal/stats would not be an issue, but the test stays self-contained).
func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	return sxy / math.Sqrt(sxx*syy)
}

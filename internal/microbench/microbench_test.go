package microbench

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"archline/internal/machine"
	"archline/internal/model"
	"archline/internal/sim"
	"archline/internal/units"
)

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.SweepPoints != 25 {
		t.Error("unexpected defaults")
	}
}

func TestBuildSuiteTitan(t *testing.T) {
	plat := machine.MustByID(machine.GTXTitan)
	kernels, err := BuildSuite(plat, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 25 SP + 25 DP sweep + 4 L1 + 4 L2 + 1 chase = 59.
	if len(kernels) != 59 {
		t.Fatalf("Titan suite has %d kernels, want 59", len(kernels))
	}
	for _, k := range kernels {
		if err := k.Validate(); err != nil {
			t.Errorf("kernel %s invalid: %v", k.Name, err)
		}
		if k.Passes < 1 {
			t.Errorf("kernel %s untuned", k.Name)
		}
	}
}

func TestBuildSuiteSkipsUnsupported(t *testing.T) {
	// NUC GPU: no double, no cache data, no chase data.
	plat := machine.MustByID(machine.NUCGPU)
	kernels, err := BuildSuite(plat, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(kernels) != 25 {
		t.Fatalf("NUC GPU suite has %d kernels, want 25 (SP sweep only)", len(kernels))
	}
	for _, k := range kernels {
		if k.Precision == sim.Double {
			t.Error("NUC GPU suite must not contain double kernels")
		}
		if k.Pattern == sim.ChasePattern {
			t.Error("NUC GPU suite must not contain chase kernels")
		}
	}
	// Scratchpad-only platform: L1 kernels but no L2.
	mali := machine.MustByID(machine.ArndaleGPU)
	kernels, _ = BuildSuite(mali, DefaultConfig())
	hasL1, hasL2 := false, false
	for _, k := range kernels {
		switch {
		case len(k.Name) >= 2 && k.Name[:2] == "l1":
			hasL1 = true
		case len(k.Name) >= 2 && k.Name[:2] == "l2":
			hasL2 = true
		}
	}
	if !hasL1 || hasL2 {
		t.Errorf("Mali suite: hasL1=%v hasL2=%v, want L1 only", hasL1, hasL2)
	}
}

// TestQuickSuiteLevelsFollowSizes holds machine.FromJSON's level-size
// rules to the simulator's capacity rule: on every description it
// accepts, the suite's L1, L2 and DRAM stream kernels run from L1, L2
// and DRAM, and its pointer chase in the random-access mode. Sizes are
// drawn at the rules' edges and log-uniformly from 1 B to 256 MiB, with
// each level described or not.
func TestQuickSuiteLevelsFollowSizes(t *testing.T) {
	raw, err := machine.Canonical(machine.MustByID(machine.DesktopCPU))
	if err != nil {
		t.Fatal(err)
	}
	var base map[string]any
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	dram := int64(machine.DRAMWorkingSet)
	edges := []int64{0, 1, 7, 8, 9, 4096, dram - 1, dram, dram + 1}
	size := func(u uint32) int64 {
		if u%4 == 0 {
			return edges[int(u/4)%len(edges)]
		}
		return int64(math.Exp2(float64(u>>2) / (1 << 30) * 28))
	}
	want := map[string]model.MemLevel{
		"sweep": model.LevelDRAM, "l1": model.LevelL1, "l2": model.LevelL2, "chase": model.LevelRand,
	}
	var accepted, rejected int
	f := func(a, b uint32, describe uint8) bool {
		m := maps.Clone(base)
		m["l1_size_bytes"], m["l2_size_bytes"] = size(a), size(b)
		if describe&1 == 0 {
			delete(m, "l1")
		}
		if describe&2 == 0 {
			delete(m, "l2")
		}
		body, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		plat, err := machine.FromJSON(bytes.NewReader(body))
		if err != nil {
			rejected++
			return true
		}
		accepted++
		kernels, err := BuildSuite(plat, Config{SweepPoints: 2})
		if err != nil {
			t.Logf("%s: %v", body, err)
			return false
		}
		s := sim.New(plat, sim.Options{Seed: 1, Noiseless: true})
		for _, k := range kernels {
			family, _, _ := strings.Cut(k.Name, "-")
			res, err := s.Run(k)
			if err != nil || res.Level != want[family] {
				t.Logf("%s: kernel %s (%v): level %v, err %v; want %v", body, k.Name, k.WorkingSet,
					res.Level, err, want[family])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if accepted == 0 || rejected == 0 {
		t.Errorf("accepted %d, rejected %d of the draws: want both", accepted, rejected)
	}
}

func TestBuildSuiteConfigErrors(t *testing.T) {
	plat := machine.MustByID(machine.GTXTitan)
	bad := DefaultConfig()
	bad.SweepPoints = 1
	if _, err := BuildSuite(plat, bad); err == nil {
		t.Error("1 sweep point should error")
	}
}

func TestSweepCoversIntensityRange(t *testing.T) {
	plat := machine.MustByID(machine.GTXTitan)
	kernels, _ := BuildSuite(plat, DefaultConfig())
	minI, maxI := math.Inf(1), 0.0
	for _, k := range kernels {
		if k.Pattern != sim.StreamPattern || k.Precision != sim.Single || k.WorkingSet < units.MiB(1) {
			continue
		}
		i := float64(k.Intensity())
		minI = math.Min(minI, i)
		maxI = math.Max(maxI, i)
	}
	if minI > 0.125+1e-9 || maxI < 512-1e-6 {
		t.Errorf("sweep covers [%v, %v], want [1/8, 512]", minI, maxI)
	}
}

func TestTunedRunTimes(t *testing.T) {
	// Tuned kernels should run near the target duration in simulation.
	plat := machine.MustByID(machine.DesktopCPU)
	cfg := DefaultConfig()
	s := sim.New(plat, sim.Options{Seed: 1, Noiseless: true})
	kernels, _ := BuildSuite(plat, cfg)
	for _, k := range kernels {
		res, err := s.Run(k)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		d := float64(res.TrueTime)
		if d < 0.2*float64(targetRunTime) || d > 40*float64(targetRunTime) {
			t.Errorf("%s runs %vs, target %vs", k.Name, d, targetRunTime)
		}
	}
}

func TestRunSuiteAndFilters(t *testing.T) {
	plat := machine.MustByID(machine.GTXTitan)
	res, err := Run(plat, DefaultConfig(), sim.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Measurements) != 59 {
		t.Fatalf("got %d measurements", len(res.Measurements))
	}
	if res.IdlePower <= 0 {
		t.Error("idle power should be measured")
	}

	sp := res.Sweep(sim.Single)
	if len(sp) != 25 {
		t.Errorf("SP sweep has %d points", len(sp))
	}
	// Ascending intensity.
	for i := 1; i < len(sp); i++ {
		if sp[i].Intensity <= sp[i-1].Intensity {
			t.Error("sweep should ascend in intensity")
		}
	}
	dp := res.Sweep(sim.Double)
	if len(dp) != 25 {
		t.Errorf("DP sweep has %d points", len(dp))
	}
	if len(res.ByLevel(model.LevelL1)) != 4 || len(res.ByLevel(model.LevelL2)) != 4 {
		t.Error("cache measurements missing")
	}
	ch := res.Chase()
	if len(ch) != 1 || ch[0].Level != model.LevelRand {
		t.Error("chase measurement missing")
	}
}

func TestRunPropagatesBuildErrors(t *testing.T) {
	plat := machine.MustByID(machine.GTXTitan)
	bad := DefaultConfig()
	bad.SweepPoints = 0
	if _, err := Run(plat, bad, sim.Options{}); err == nil {
		t.Error("bad config should propagate")
	}
}

func TestSuiteMeasurementsMatchModelNoiselessly(t *testing.T) {
	// End-to-end sanity: noiseless suite measurements on a quirk-free
	// platform match the capped model's closed forms.
	plat := machine.MustByID(machine.XeonPhi)
	res, err := Run(plat, DefaultConfig(), sim.Options{Seed: 1, Noiseless: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Sweep(sim.Single) {
		wantP := float64(plat.Single.AvgPowerAt(m.Intensity))
		if math.Abs(float64(m.AvgPower)-wantP) > 1e-3*wantP {
			t.Errorf("I=%v: power %v, model %v", m.Intensity, m.AvgPower, wantP)
		}
		wantT := float64(plat.Single.Time(m.W, m.Q))
		if math.Abs(float64(m.Time)-wantT) > 1e-6*wantT {
			t.Errorf("I=%v: time %v, model %v", m.Intensity, m.Time, wantT)
		}
	}
}

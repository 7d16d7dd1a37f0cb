package trace

import (
	"math"
	"testing"

	"archline/internal/machine"
	"archline/internal/powermon"
	"archline/internal/sim"
	"archline/internal/stats"
	"archline/internal/units"
)

func approx(t *testing.T, got, want, relTol float64, name string) {
	t.Helper()
	if math.Abs(got-want) > relTol*math.Abs(want)+1e-300 {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

// flatPoints builds an evenly sampled constant-power timeline.
func flatPoints(p float64, n int, dt float64) []Point {
	pts := make([]Point, n)
	for k := range pts {
		pts[k] = Point{T: units.Time((float64(k) + 0.5) * dt), P: units.Power(p)}
	}
	return pts
}

func TestFromTraceSumsRails(t *testing.T) {
	m := powermon.PCIeGPUMeter()
	for i := range m.Channels {
		m.Channels[i].CalibGain = 1
		m.Channels[i].NoiseSD = 0
	}
	tr, err := m.Record(powermon.Constant(250), 0.25, nil)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(tr.Channels[0].Samples) {
		t.Fatalf("point count %d", len(pts))
	}
	for _, p := range pts {
		approx(t, float64(p.P), 250, 1e-9, "summed rail power")
	}
	if _, err := FromTrace(nil); err == nil {
		t.Error("nil trace should error")
	}
	if _, err := FromTrace(&powermon.Trace{Channels: []powermon.ChannelTrace{{}}}); err == nil {
		t.Error("empty channels should error")
	}
}

func TestMovingAverage(t *testing.T) {
	pts := flatPoints(5, 20, 0.05)
	pts[10].P = 50 // spike
	sm := MovingAverage(pts, 5)
	if float64(sm[10].P) >= 50 {
		t.Error("smoothing should damp the spike")
	}
	approx(t, float64(sm[0].P), 5, 1e-12, "edge window excludes the far spike")
	// Even window widths round up; width<1 clamps.
	if got := MovingAverage(pts, 4); len(got) != len(pts) {
		t.Error("length preserved")
	}
	if got := MovingAverage(pts, 0); got[10].P != 50 {
		t.Error("window 1 is identity")
	}
}

func TestDetectPhasesSyntheticStep(t *testing.T) {
	// 100 samples at 100 W, then 100 at 200 W, then 100 at 120 W.
	var pts []Point
	levels := []float64{100, 200, 120}
	dt := 0.001
	k := 0
	for _, lv := range levels {
		for i := 0; i < 100; i++ {
			pts = append(pts, Point{T: units.Time(float64(k) * dt), P: units.Power(lv)})
			k++
		}
	}
	phases, err := DetectPhases(pts, 10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 3 {
		t.Fatalf("detected %d phases, want 3", len(phases))
	}
	for i, want := range levels {
		approx(t, float64(phases[i].AvgPower), want, 0.02, "phase power")
	}
	if phases[0].End <= phases[0].Start {
		t.Error("phase duration must be positive")
	}
	// Errors.
	if _, err := DetectPhases(nil, 5, 0.1); err == nil {
		t.Error("no points should error")
	}
	if _, err := DetectPhases(pts, 0, 0.1); err == nil {
		t.Error("minLen 0 should error")
	}
	if _, err := DetectPhases(pts, 5, 0); err == nil {
		t.Error("zero threshold should error")
	}
}

func TestDetectPhasesConstantIsOnePhase(t *testing.T) {
	rng := stats.NewStream(3, "phase-noise")
	pts := flatPoints(100, 500, 0.001)
	for i := range pts {
		pts[i].P *= units.Power(1 + 0.01*rng.NormFloat64())
	}
	phases, err := DetectPhases(pts, 20, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 1 {
		t.Errorf("noisy constant power should be one phase, got %d", len(phases))
	}
}

func TestEndToEndSequencePhaseDetection(t *testing.T) {
	// Integration: run a low-intensity, a high-intensity, and a chase
	// kernel back-to-back on the simulated Titan, record with PowerMon,
	// and recover the three phases from the trace.
	plat := machine.MustByID(machine.GTXTitan)
	s := sim.New(plat, sim.Options{Seed: 4})
	// Pass counts chosen so each phase lasts ~0.25 s, long enough for the
	// 1024 Hz meter to resolve.
	kernels := []sim.Kernel{
		{Name: "mem", Precision: sim.Single, FlopsPerWord: 0.5, WorkingSet: units.MiB(64), Passes: 900},
		{Name: "flops", Precision: sim.Single, FlopsPerWord: 4096, WorkingSet: units.MiB(64), Passes: 15},
		{Name: "chase", Precision: sim.Single, Pattern: sim.ChasePattern, WorkingSet: units.MiB(256), Passes: 120},
	}
	seq, tr, err := s.MeasureSequence(kernels)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Runs) != 3 || seq.Total <= 0 {
		t.Fatal("sequence bookkeeping")
	}
	pts, err := FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	phases, err := DetectPhases(MovingAverage(pts, 9), 16, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 3 {
		t.Fatalf("detected %d phases, want 3 (kernels)", len(phases))
	}
	// Phase powers match the ground-truth run powers.
	for i, run := range seq.Runs {
		want := float64(plat.Single.Pi1) + float64(run.TrueDyn)
		approx(t, float64(phases[i].AvgPower), want, 0.06, "phase "+run.Kernel.Name)
	}
}

func TestRunSequenceErrors(t *testing.T) {
	s := sim.New(machine.MustByID(machine.GTXTitan), sim.Options{Seed: 1})
	if _, err := s.RunSequence(nil); err == nil {
		t.Error("empty sequence should error")
	}
	bad := []sim.Kernel{{Name: "bad", Passes: 0}}
	if _, err := s.RunSequence(bad); err == nil {
		t.Error("invalid kernel should propagate")
	}
	if _, _, err := s.MeasureSequence(bad); err == nil {
		t.Error("invalid kernel should propagate through MeasureSequence")
	}
}

package sim

import (
	"math"
	"testing"

	"archline/internal/machine"
	"archline/internal/model"
	"archline/internal/units"
)

func approx(t *testing.T, got, want, relTol float64, name string) {
	t.Helper()
	if math.Abs(got-want) > relTol*math.Abs(want)+1e-300 {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

// streamKernel builds a DRAM streaming kernel at the given flops per word.
func streamKernel(fpw float64) Kernel {
	return Kernel{
		Name: "stream", Precision: Single, Pattern: StreamPattern,
		FlopsPerWord: fpw, WorkingSet: units.MiB(64), Passes: 4,
	}
}

func titanSim(noiseless bool) *Simulator {
	return New(machine.MustByID(machine.GTXTitan), Options{Seed: 42, Noiseless: noiseless})
}

func TestKernelValidate(t *testing.T) {
	if err := streamKernel(8).Validate(); err != nil {
		t.Fatalf("valid kernel rejected: %v", err)
	}
	bad := streamKernel(8)
	bad.WorkingSet = 2
	if bad.Validate() == nil {
		t.Error("sub-word working set should be rejected")
	}
	bad = streamKernel(8)
	bad.Passes = 0
	if bad.Validate() == nil {
		t.Error("zero passes should be rejected")
	}
	bad = streamKernel(math.NaN())
	if bad.Validate() == nil {
		t.Error("NaN flops per word should be rejected")
	}
	bad = streamKernel(-1)
	if bad.Validate() == nil {
		t.Error("negative flops per word should be rejected")
	}
}

func TestKernelDerived(t *testing.T) {
	k := streamKernel(8)
	approx(t, float64(k.Intensity()), 2, 1e-12, "single 8 flop/word = 2 flop:B")
	k.Precision = Double
	approx(t, float64(k.Intensity()), 1, 1e-12, "double 8 flop/word = 1 flop:B")
	k = Kernel{Precision: Single, FlopsPerWord: 4, WorkingSet: 4096, Passes: 2}
	approx(t, float64(k.Work()), 4*1024*2, 1e-12, "work accounting")
	if Single.String() != "single" || Double.String() != "double" {
		t.Error("precision names")
	}
	if StreamPattern.String() != "stream" || ChasePattern.String() != "chase" {
		t.Error("pattern names")
	}
	if Single.Bytes() != 4 || Double.Bytes() != 8 {
		t.Error("word sizes")
	}
}

func TestRunComputeBoundNoiseless(t *testing.T) {
	// Titan at very high intensity: compute-bound, time = W * tau_flop.
	s := titanSim(true)
	k := streamKernel(512) // 128 flop:Byte, far above B_tau ~ 16.8
	res, err := s.Run(k)
	if err != nil {
		t.Fatal(err)
	}
	wantT := float64(k.Work()) / 4020e9
	approx(t, float64(res.TrueTime), wantT, 1e-9, "compute-bound time")
	if res.Level != model.LevelDRAM {
		t.Errorf("64 MiB working set should be DRAM, got %v", res.Level)
	}
}

func TestRunMemoryBoundNoiseless(t *testing.T) {
	s := titanSim(true)
	k := streamKernel(0.5) // I = 0.125
	res, err := s.Run(k)
	if err != nil {
		t.Fatal(err)
	}
	wantT := float64(res.Q) / 239e9
	approx(t, float64(res.TrueTime), wantT, 1e-9, "memory-bound time")
	approx(t, float64(res.Q), float64(units.MiB(64))*4, 1e-12, "Q accounting")
}

func TestRunCapBoundNoiseless(t *testing.T) {
	// Titan at its balance point needs pi_flop + pi_mem = 186 W > 164 W.
	s := titanSim(true)
	p := machine.MustByID(machine.GTXTitan).Single
	bal := float64(p.TimeBalance())
	k := streamKernel(bal * 4) // flop/word for I = bal
	res, err := s.Run(k)
	if err != nil {
		t.Fatal(err)
	}
	dyn := float64(res.W)*float64(p.EpsFlop) + float64(res.Q)*float64(p.EpsMem)
	wantT := dyn / float64(p.DeltaPi)
	approx(t, float64(res.TrueTime), wantT, 1e-9, "cap-bound time")
	// True dynamic power equals the cap.
	approx(t, float64(res.TrueDyn), float64(p.DeltaPi), 1e-9, "dynamic power at cap")
}

func TestRunCacheLevels(t *testing.T) {
	s := New(machine.MustByID(machine.DesktopCPU), Options{Seed: 1, Noiseless: true})
	plat := s.Platform()

	k := streamKernel(4)
	k.WorkingSet = units.KiB(16) // fits 32 KiB L1
	k.Passes = 64
	res, err := s.Run(k)
	if err != nil {
		t.Fatal(err)
	}
	if res.Level != model.LevelL1 {
		t.Errorf("16 KiB should be L1-resident, got %v", res.Level)
	}
	// Memory-bound pure streaming from L1 runs at L1 bandwidth.
	k.FlopsPerWord = 0
	res, _ = s.Run(k)
	approx(t, float64(res.Q)/float64(res.TrueTime), float64(plat.Sustained.L1BW), 1e-9, "L1 bandwidth")

	k.WorkingSet = units.KiB(128) // fits 256 KiB L2, not L1
	res, _ = s.Run(k)
	if res.Level != model.LevelL2 {
		t.Errorf("128 KiB should be L2-resident, got %v", res.Level)
	}
	approx(t, float64(res.Q)/float64(res.TrueTime), float64(plat.Sustained.L2BW), 1e-9, "L2 bandwidth")

	k.WorkingSet = units.MiB(64)
	res, _ = s.Run(k)
	if res.Level != model.LevelDRAM {
		t.Errorf("64 MiB should be DRAM, got %v", res.Level)
	}
}

// TestRunCacheLevelEdges pins the capacity rule at its boundaries: a
// described level serves every working set up to and including its
// size, one word more goes to the next level, and a level without
// Table I data serves nothing whatever its size.
func TestRunCacheLevelEdges(t *testing.T) {
	word := Single.Bytes()
	desk := machine.MustByID(machine.DesktopCPU)
	apu := machine.MustByID(machine.APUGPU) // L1 data only
	cases := []struct {
		name string
		plat *machine.Platform
		ws   units.Bytes
		want model.MemLevel
	}{
		{"desktop-cpu at L1Size", desk, desk.L1Size, model.LevelL1},
		{"desktop-cpu one word past L1Size", desk, desk.L1Size + word, model.LevelL2},
		{"desktop-cpu at L2Size", desk, desk.L2Size, model.LevelL2},
		{"desktop-cpu one word past L2Size", desk, desk.L2Size + word, model.LevelDRAM},
		{"nuc-gpu at 16 KiB", machine.MustByID(machine.NUCGPU), units.KiB(16), model.LevelDRAM},
		{"apu-gpu one word past L1Size", apu, apu.L1Size + word, model.LevelDRAM},
	}
	for _, c := range cases {
		k := streamKernel(4)
		k.WorkingSet = c.ws
		res, err := New(c.plat, Options{Seed: 1, Noiseless: true}).Run(k)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Level != c.want {
			t.Errorf("%s (%v): level %v, want %v", c.name, c.ws, res.Level, c.want)
		}
	}
}

func TestRunChase(t *testing.T) {
	s := titanSim(true)
	plat := s.Platform()
	k := Kernel{
		Name: "chase", Precision: Single, Pattern: ChasePattern,
		WorkingSet: units.MiB(256), Passes: 1,
	}
	res, err := s.Run(k)
	if err != nil {
		t.Fatal(err)
	}
	if res.Level != model.LevelRand {
		t.Errorf("level = %v, want random", res.Level)
	}
	lines := math.Floor(float64(k.WorkingSet) / float64(plat.Rand.Line))
	approx(t, float64(res.Accesses), lines, 1e-12, "access count")
	// Sustained access rate matches Table I.
	rate := float64(res.Accesses) / float64(res.TrueTime)
	approx(t, rate, float64(plat.Sustained.RandRate), 1e-9, "chase rate")

	// Sub-line working set errors.
	k.WorkingSet = 16
	if _, err := s.Run(k); err == nil {
		t.Error("sub-line chase should error")
	}
}

func TestRunDoublePrecision(t *testing.T) {
	s := titanSim(true)
	k := streamKernel(512)
	k.Precision = Double
	res, err := s.Run(k)
	if err != nil {
		t.Fatal(err)
	}
	wantT := float64(k.Work()) / 1600e9 // Titan sustained double rate
	approx(t, float64(res.TrueTime), wantT, 1e-9, "double compute-bound time")

	// Platforms without double support error.
	sm := New(machine.MustByID(machine.ArndaleGPU), Options{Seed: 1, Noiseless: true})
	if _, err := sm.Run(k); err == nil {
		t.Error("double on Mali should error")
	}
}

func TestMeasureConsistency(t *testing.T) {
	s := titanSim(true)
	k := streamKernel(8)
	m, err := s.Measure(k)
	if err != nil {
		t.Fatal(err)
	}
	if m.Platform != machine.GTXTitan || m.Kernel != "stream" {
		t.Error("measurement metadata")
	}
	approx(t, float64(m.Intensity), 2, 1e-12, "measured intensity")
	// Noiseless: E = P * T and P = pi_1 + dynamic.
	approx(t, float64(m.Energy), float64(m.AvgPower)*float64(m.Time), 1e-9, "E = P*T")
	p := machine.MustByID(machine.GTXTitan).Single
	wantP := float64(p.AvgPowerAt(2))
	approx(t, float64(m.AvgPower), wantP, 1e-6, "measured power matches eq. (7) ground truth")
}

func TestMeasureNoiseIsSmallAndDeterministic(t *testing.T) {
	a := titanSim(false)
	b := titanSim(false)
	k := streamKernel(8)
	ma, err := a.Measure(k)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := b.Measure(k)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Time != mb.Time || ma.Energy != mb.Energy {
		t.Error("same seed must reproduce identical measurements")
	}
	// Noise is small: within 5% of noiseless.
	clean, _ := titanSim(true).Measure(k)
	if math.Abs(float64(ma.Time-clean.Time)) > 0.05*float64(clean.Time) {
		t.Error("time noise too large")
	}
	if math.Abs(float64(ma.AvgPower-clean.AvgPower)) > 0.05*float64(clean.AvgPower) {
		t.Error("power noise too large")
	}
	// Different seeds differ.
	c := New(machine.MustByID(machine.GTXTitan), Options{Seed: 43})
	mc, _ := c.Measure(k)
	if mc.Time == ma.Time {
		t.Error("different seeds should perturb measurements")
	}
}

func TestNUCGPUQuirkIsVariance(t *testing.T) {
	// The NUC GPU's OS-interference quirk is measurement variance, not a
	// physics change: noiseless runs follow the capped model exactly
	// (the hardware is flop-cap-bound at ~233 Gflop/s, pi_flop > DeltaPi),
	// while noisy runs scatter several times wider than on quirk-free
	// platforms.
	s := New(machine.MustByID(machine.NUCGPU), Options{Seed: 1, Noiseless: true})
	k := streamKernel(4096)
	k.WorkingSet = units.MiB(64)
	res, err := s.Run(k)
	if err != nil {
		t.Fatal(err)
	}
	p := machine.MustByID(machine.NUCGPU).Single
	rate := float64(res.W) / float64(res.TrueTime)
	modelRate := float64(p.FlopRateAt(k.Intensity()))
	approx(t, rate, modelRate, 1e-6, "noiseless NUC GPU follows the capped model")

	// Noisy runs: spread across seeds far exceeds the quirk-free 0.8%.
	var lo, hi float64 = math.Inf(1), 0
	for seed := uint64(0); seed < 20; seed++ {
		n := New(machine.MustByID(machine.NUCGPU), Options{Seed: seed})
		r, err := n.Run(k)
		if err != nil {
			t.Fatal(err)
		}
		v := float64(r.TrueTime)
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi/lo < 1.05 {
		t.Errorf("NUC GPU run-to-run spread %v, want OS-interference-sized (>5%%)", hi/lo)
	}
}

func TestArndaleGPUQuirkMidIntensityEfficiency(t *testing.T) {
	// At the balance point the Arndale GPU hardware is more efficient
	// than the constant-cost model: the capped model overpredicts power
	// there by up to ~15% but is accurate in the tails.
	plat := machine.MustByID(machine.ArndaleGPU)
	s := New(plat, Options{Seed: 1, Noiseless: true})
	bal := float64(plat.Single.TimeBalance())

	mid := streamKernel(bal * 4)
	mMid, err := s.Measure(mid)
	if err != nil {
		t.Fatal(err)
	}
	modelP := float64(plat.Single.AvgPowerAt(mMid.Intensity))
	errMid := (modelP - float64(mMid.AvgPower)) / float64(mMid.AvgPower)
	if errMid < 0.03 || errMid > 0.15 {
		t.Errorf("mid-intensity overprediction = %v, want within (3%%, 15%%]", errMid)
	}

	tail := streamKernel(bal * 4 * 64)
	mTail, _ := s.Measure(tail)
	modelP = float64(plat.Single.AvgPowerAt(mTail.Intensity))
	errTail := math.Abs(modelP-float64(mTail.AvgPower)) / float64(mTail.AvgPower)
	if errTail > errMid {
		t.Errorf("tail error %v should be below mid error %v", errTail, errMid)
	}
}

func TestMeasureIdle(t *testing.T) {
	s := titanSim(true)
	p, err := s.MeasureIdle(1)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, float64(p), 72.9, 1e-9, "noiseless idle power")
	n := titanSim(false)
	pn, err := n.MeasureIdle(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(pn)-72.9) > 0.05*72.9 {
		t.Errorf("noisy idle power %v too far from 72.9", pn)
	}
}

func TestMeterFor(t *testing.T) {
	if len(MeterFor(machine.MustByID(machine.GTXTitan)).Channels) != 3 {
		t.Error("GPU should use the 3-rail PCIe setup")
	}
	if len(MeterFor(machine.MustByID(machine.DesktopCPU)).Channels) != 2 {
		t.Error("desktop should use the 2-rail CPU setup")
	}
	if len(MeterFor(machine.MustByID(machine.ArndaleCPU)).Channels) != 1 {
		t.Error("boards should use the single-rail brick setup")
	}
}

func TestRunInvalidKernel(t *testing.T) {
	s := titanSim(true)
	k := streamKernel(8)
	k.Passes = 0
	if _, err := s.Run(k); err == nil {
		t.Error("invalid kernel should error from Run")
	}
	if _, err := s.Measure(k); err == nil {
		t.Error("invalid kernel should error from Measure")
	}
}

func TestChaseOnPlatformWithoutRandData(t *testing.T) {
	s := New(machine.MustByID(machine.NUCGPU), Options{Seed: 1, Noiseless: true})
	k := Kernel{Name: "chase", Pattern: ChasePattern, WorkingSet: units.MiB(8), Passes: 1}
	if _, err := s.Run(k); err == nil {
		t.Error("NUC GPU has no random-access data; chase should error")
	}
}

func TestAllPlatformsMeasureAcrossIntensities(t *testing.T) {
	// Integration: every platform produces sane measurements over the
	// fig. 5 intensity range.
	for _, plat := range machine.All() {
		s := New(plat, Options{Seed: 7})
		for _, fpw := range []float64{0.5, 4, 32, 256} {
			k := streamKernel(fpw)
			m, err := s.Measure(k)
			if err != nil {
				t.Fatalf("%s fpw=%v: %v", plat.Name, fpw, err)
			}
			if m.Time <= 0 || m.Energy <= 0 || m.AvgPower <= 0 {
				t.Fatalf("%s fpw=%v: degenerate measurement %+v", plat.Name, fpw, m)
			}
			// Power bounded by pi_1 and peak, generously (noise + quirks).
			lo := float64(plat.Single.Pi1) * 0.8
			hi := float64(plat.Single.PeakAvgPower()) * 1.35
			if pw := float64(m.AvgPower); pw < lo || pw > hi {
				t.Errorf("%s fpw=%v: power %v outside [%v, %v]", plat.Name, fpw, pw, lo, hi)
			}
		}
	}
}

func TestStridedPattern(t *testing.T) {
	s := titanSim(true)
	line := float64(machine.MustByID(machine.GTXTitan).CacheLine)

	// Stride of exactly one line: every access transfers a line but uses
	// one word — traffic inflates by line/word = 32x over the useful
	// bytes, and the achieved useful bandwidth collapses accordingly.
	k := Kernel{
		Name: "strided", Precision: Single, Pattern: StridedPattern,
		FlopsPerWord: 0, WorkingSet: units.MiB(64), Passes: 4,
		StrideBytes: units.Bytes(line),
	}
	res, err := s.Run(k)
	if err != nil {
		t.Fatal(err)
	}
	wantQ := float64(units.MiB(64)) / line * line * 4 // all lines, all passes
	approx(t, float64(res.Q), wantQ, 1e-9, "line-stride traffic")
	usefulBytes := float64(units.MiB(64)) / line * 4 * 4 // one word per line
	usefulBW := usefulBytes / float64(res.TrueTime)
	approx(t, usefulBW, 239e9/line*4, 1e-6, "useful bandwidth collapses by line/word")

	// Sub-line stride: traffic equals plain streaming of the set.
	k.StrideBytes = 8
	res, err = s.Run(k)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, float64(res.Q), float64(units.MiB(64))*4, 1e-9, "sub-line stride streams")

	// Huge stride beyond a line: one line per useful word regardless.
	k.StrideBytes = units.KiB(4)
	res, err = s.Run(k)
	if err != nil {
		t.Fatal(err)
	}
	words := math.Floor(float64(units.MiB(64)) / float64(units.KiB(4)))
	approx(t, float64(res.Q), words*line*4, 1e-9, "page-stride traffic")

	// Work accounting follows useful words only.
	k.FlopsPerWord = 10
	res, _ = s.Run(k)
	approx(t, float64(res.W), 10*words*4, 1e-9, "strided work")

	// Validation: stride below a word is rejected.
	k.StrideBytes = 2
	if _, err := s.Run(k); err == nil {
		t.Error("sub-word stride should error")
	}
	if StridedPattern.String() != "strided" {
		t.Error("pattern name")
	}
}

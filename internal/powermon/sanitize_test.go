package powermon

import (
	"math"
	"testing"

	"archline/internal/stats"
	"archline/internal/units"
)

// recordClean produces a realistic noisy single-channel trace.
func recordClean(t *testing.T, p units.Power, d units.Time, seed uint64) *Trace {
	t.Helper()
	m := MobileBoardMeter()
	tr, err := m.Record(Constant(p), d, stats.NewStream(seed, "sanitize"))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSanitizeCleanTraceUntouched(t *testing.T) {
	tr := recordClean(t, 40, 1, 1)
	want := tr.AvgPower().Watts()
	first := &tr.Channels[0].Samples[0]
	q := tr.Sanitize()
	if &tr.Channels[0].Samples[0] != first {
		t.Error("sanitize copied a channel with no gap")
	}
	if q.Repairs() != 0 {
		t.Errorf("clean trace repaired: %v", q)
	}
	if q.Grade != GradeA {
		t.Errorf("clean trace grade = %v, want A", q.Grade)
	}
	if got := tr.AvgPower().Watts(); got != want {
		t.Errorf("sanitize changed clean average power: %v -> %v", want, got)
	}
}

func TestSanitizeNoiselessConstantNotStuck(t *testing.T) {
	// A noiseless recording repeats samples exactly; that is a constant
	// signal, not a latched ADC, and must not be "repaired".
	m := MobileBoardMeter()
	tr, err := m.Record(Constant(25), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q := tr.Sanitize(); q.Repairs() != 0 {
		t.Errorf("noiseless constant trace repaired: %v", q)
	}
}

func TestSanitizeRemovesSpikes(t *testing.T) {
	tr := recordClean(t, 40, 1, 2)
	clean := tr.AvgPower().Watts()
	ss := tr.Channels[0].Samples
	// Rail five readings at 12x.
	for _, i := range []int{17, 101, 102, 500, 999} {
		ss[i].I *= 12
	}
	if biased := tr.AvgPower().Watts(); biased < clean*1.03 {
		t.Fatalf("spikes should bias the average visibly: %v vs %v", biased, clean)
	}
	q := tr.Sanitize()
	if q.SpikesRemoved != 5 {
		t.Errorf("SpikesRemoved = %d, want 5", q.SpikesRemoved)
	}
	if got := tr.AvgPower().Watts(); math.Abs(got-clean)/clean > 0.002 {
		t.Errorf("despiked average %v, want ~%v", got, clean)
	}
}

func TestSanitizeRepairsStuckRun(t *testing.T) {
	tr := recordClean(t, 40, 1, 3)
	clean := tr.AvgPower().Watts()
	ss := tr.Channels[0].Samples
	// Latch 100 samples at 40% of nominal.
	stuckI := ss[200].I * 0.4
	for i := 200; i < 300; i++ {
		ss[i].I = stuckI
		ss[i].V = ss[200].V
	}
	q := tr.Sanitize()
	if q.StuckRepaired != 100 {
		t.Errorf("StuckRepaired = %d, want 100", q.StuckRepaired)
	}
	if got := tr.AvgPower().Watts(); math.Abs(got-clean)/clean > 0.01 {
		t.Errorf("unstuck average %v, want ~%v", got, clean)
	}
	if q.Grade != GradeB {
		t.Errorf("grade = %v, want B for ~10%% repair", q.Grade)
	}
}

func TestSanitizeFillsGaps(t *testing.T) {
	tr := recordClean(t, 40, 1, 4)
	ss := tr.Channels[0].Samples
	n := len(ss)
	// Drop a 30-sample burst.
	tr.Channels[0].Samples = append(ss[:300:300], ss[330:]...)
	q := tr.Sanitize()
	if q.GapsFilled < 28 || q.GapsFilled > 32 {
		t.Errorf("GapsFilled = %d, want ~30", q.GapsFilled)
	}
	if got := len(tr.Channels[0].Samples); got < n-2 || got > n+2 {
		t.Errorf("post-repair samples = %d, want ~%d", got, n)
	}
	if got := tr.Channels[0].Samples; cap(got) != len(got) {
		t.Errorf("repaired series has capacity %d for %d samples, want exact", cap(got), len(got))
	}
	// Timestamps must stay monotonic.
	prev := units.Time(-1)
	for _, s := range tr.Channels[0].Samples {
		if s.T <= prev {
			t.Fatalf("non-monotonic timestamp %v after %v", s.T, prev)
		}
		prev = s.T
	}
}

func TestSanitizeGradesHeavyContamination(t *testing.T) {
	tr := recordClean(t, 40, 1, 5)
	ss := tr.Channels[0].Samples
	// Latch 40% of the trace: usable only as grade C.
	stuckI := ss[100].I * 0.2
	for i := 100; i < 100+len(ss)*2/5; i++ {
		ss[i].I = stuckI
		ss[i].V = ss[100].V
	}
	if q := tr.Sanitize(); q.Grade != GradeC {
		t.Errorf("grade = %v, want C", q.Grade)
	}
}

func TestQualityMergeKeepsWorst(t *testing.T) {
	a := Quality{GapsFilled: 2, RepairedFrac: 0.002, Grade: GradeA}
	b := Quality{SpikesRemoved: 7, RepairedFrac: 0.05, Grade: GradeB}
	m := a.Merge(b)
	if m.Grade != GradeB || m.GapsFilled != 2 || m.SpikesRemoved != 7 {
		t.Errorf("merge = %+v", m)
	}
	if m.RepairedFrac != 0.05 {
		t.Errorf("merged frac = %v, want 0.05", m.RepairedFrac)
	}
}

func TestTransientClassification(t *testing.T) {
	if !IsTransient(ErrDisconnect) || !IsTransient(ErrCalibrationZero) {
		t.Error("disconnect and calibration glitches must be transient")
	}
	for _, err := range []error{ErrNoChannels, ErrBadDuration, ErrNilSignal, ErrEmptyTrace} {
		if IsTransient(err) {
			t.Errorf("%v must be permanent", err)
		}
	}
}

// BenchmarkSanitize times the sanitization pass of the refit pipeline
// on a 3-rail PCIe GPU recording that carries each pathology the pass
// repairs on every rail: a dropped-sample gap, spikes and a latched
// run. The pass repairs in place, so each iteration sanitizes a fresh
// copy made outside the timer.
func BenchmarkSanitize(b *testing.B) {
	tr, err := PCIeGPUMeter().Record(Constant(200), 4, stats.NewStream(1, "bench-sanitize"))
	if err != nil {
		b.Fatal(err)
	}
	for c := range tr.Channels {
		ss := tr.Channels[c].Samples
		for _, i := range []int{17, 101, 102, 2500} {
			ss[i].I *= 12
		}
		for i := 1000; i < 1100; i++ {
			ss[i] = Sample{T: ss[i].T, V: ss[1000].V, I: ss[1000].I * 0.4}
		}
		tr.Channels[c].Samples = append(ss[:3000:3000], ss[3030:]...)
	}
	fresh := func() *Trace {
		cp := &Trace{Duration: tr.Duration, Channels: make([]ChannelTrace, len(tr.Channels))}
		for c, ch := range tr.Channels {
			cp.Channels[c] = ChannelTrace{Channel: ch.Channel, Samples: append([]Sample(nil), ch.Samples...)}
		}
		return cp
	}
	if q := fresh().Sanitize(); q.GapsFilled == 0 || q.SpikesRemoved == 0 || q.StuckRepaired == 0 {
		b.Fatalf("corrupted recording does not exercise every repair: %v", q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		work := fresh()
		b.StartTimer()
		work.Sanitize()
	}
}

package faults

import (
	"errors"
	"math"
	"testing"

	"archline/internal/powermon"
	"archline/internal/stats"
)

func record(t *testing.T, in *Injector, label string, seed uint64) (*powermon.Trace, error) {
	t.Helper()
	m := powermon.MobileBoardMeter()
	return in.Record(m, powermon.Constant(40), 1, stats.NewStream(seed, "meter/"+label), label)
}

func mustRecord(t *testing.T, in *Injector, label string, seed uint64) *powermon.Trace {
	t.Helper()
	tr, err := record(t, in, label, seed)
	for powermon.IsTransient(err) {
		tr, err = record(t, in, label, seed)
	}
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func tracesEqual(a, b *powermon.Trace) bool {
	if len(a.Channels) != len(b.Channels) {
		return false
	}
	for c := range a.Channels {
		as, bs := a.Channels[c].Samples, b.Channels[c].Samples
		if len(as) != len(bs) {
			return false
		}
		for i := range as {
			if as[i] != bs[i] {
				return false
			}
		}
	}
	return true
}

func TestSameSeedSameFaultSchedule(t *testing.T) {
	// Two injectors with the same profile and seed must corrupt
	// identically, label by label, including disconnect episodes.
	for _, label := range []string{"gtx-titan/dram_sweep_17", "i7-3930k/flops_sp", "a2x/chase_l2"} {
		a := New(Paper(), 42)
		b := New(Paper(), 42)
		ta, ea := record(t, a, label, 7)
		tb, eb := record(t, b, label, 7)
		if (ea == nil) != (eb == nil) {
			t.Fatalf("%s: error mismatch: %v vs %v", label, ea, eb)
		}
		if ea != nil {
			continue // both disconnected on the same attempt: deterministic
		}
		if !tracesEqual(ta, tb) {
			t.Errorf("%s: same seed produced different corrupted traces", label)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := mustRecord(t, New(Paper(), 1), "k", 7)
	b := mustRecord(t, New(Paper(), 2), "k", 7)
	if tracesEqual(a, b) {
		t.Error("different fault seeds produced identical traces")
	}
}

func TestNoneProfilePassthrough(t *testing.T) {
	// The none profile must be byte-identical to recording directly.
	in := New(None(), 42)
	got := mustRecord(t, in, "k", 7)
	m := powermon.MobileBoardMeter()
	want, err := m.Record(powermon.Constant(40), 1, stats.NewStream(7, "meter/k"))
	if err != nil {
		t.Fatal(err)
	}
	if !tracesEqual(got, want) {
		t.Error("none profile altered the trace")
	}
	if None().Enabled() {
		t.Error("None().Enabled() = true")
	}
	if !Paper().Enabled() || !Harsh().Enabled() {
		t.Error("paper/harsh profiles must be enabled")
	}
}

func TestNilInjectorPassthrough(t *testing.T) {
	var in *Injector
	tr := mustRecord(t, in, "k", 7)
	if tr == nil {
		t.Fatal("nil injector must still record")
	}
	if _, hit := in.ThrottleEvent("k", 1); hit {
		t.Error("nil injector throttled")
	}
}

func TestDisconnectBurstThenRecovery(t *testing.T) {
	// Force a disconnect and check the episode lasts exactly
	// DisconnectBurst attempts, returning the typed transient error.
	prof := Paper()
	prof.DisconnectProb = 1
	prof.DisconnectBurst = 2
	in := New(prof, 42)
	var fails int
	for {
		_, err := record(t, in, "k", 7)
		if err == nil {
			break
		}
		if !errors.Is(err, powermon.ErrDisconnect) {
			t.Fatalf("disconnect error = %v, want ErrDisconnect", err)
		}
		if !powermon.IsTransient(err) {
			t.Fatal("disconnect must classify as transient")
		}
		fails++
		if fails > 10 {
			t.Fatal("disconnect episode never recovered")
		}
	}
	if fails != 2 {
		t.Errorf("episode lasted %d failures, want 2", fails)
	}
	// After recovery the label stays connected.
	if _, err := record(t, in, "k", 7); err != nil {
		t.Errorf("recovered label failed again: %v", err)
	}
}

func TestThrottleEventConservesWork(t *testing.T) {
	prof := Paper()
	prof.ThrottleProb = 1 // always throttle
	in := New(prof, 42)
	trueTime := 3.0
	w, hit := in.ThrottleEvent("k", trueTime)
	if !hit {
		t.Fatal("ThrottleProb=1 did not throttle")
	}
	// Work conservation: the throttled stretch runs 1/f slower, so
	// total = (1-g)*T + g*T/f.
	f, g := prof.ThrottleFactor, prof.ThrottleWorkFrac
	wantTotal := (1-g)*trueTime + g*trueTime/f
	if math.Abs(w.Total-wantTotal) > 1e-12 {
		t.Errorf("Total = %v, want %v", w.Total, wantTotal)
	}
	if w.Factor != f {
		t.Errorf("Factor = %v, want %v", w.Factor, f)
	}
	if w.Start < 0 || w.Start+w.Dur > w.Total+1e-12 {
		t.Errorf("window [%v, %v] outside run [0, %v]", w.Start, w.Start+w.Dur, w.Total)
	}
	// Deterministic placement.
	w2, _ := New(prof, 42).ThrottleEvent("k", trueTime)
	if w2 != w {
		t.Errorf("same seed gave different windows: %+v vs %+v", w, w2)
	}
}

func TestPaperProfileRatesArePlausible(t *testing.T) {
	// The paper profile's corruption must stay within the documented
	// envelope: ≤2% dropped samples and ≤0.5% spikes in expectation.
	p := Paper()
	if p.DropRate > 0.02 || p.SpikeRate > 0.005 {
		t.Errorf("paper profile too harsh: drop %v spike %v", p.DropRate, p.SpikeRate)
	}
	prof := p
	prof.DisconnectProb = 0 // measure corruption rates only
	in := New(prof, 42)
	dropped, spiked, total := 0, 0, 0
	for rep := 0; rep < 20; rep++ {
		label := "rate-" + string(rune('a'+rep))
		m := powermon.MobileBoardMeter()
		clean, err := m.Record(powermon.Constant(40), 1, stats.NewStream(99, "meter/"+label))
		if err != nil {
			t.Fatal(err)
		}
		n := clean.SampleCount()
		tr := mustRecord(t, in, label, 99)
		dropped += n - tr.SampleCount()
		// Spikes stand out as >5x the channel's nominal per-sample power.
		for _, ch := range tr.Channels {
			for _, s := range ch.Samples {
				if s.Power().Watts() > 5*40*channelShare(clean, ch.Channel) {
					spiked++
				}
			}
		}
		total += n
	}
	if frac := float64(dropped) / float64(total); frac > 0.04 {
		t.Errorf("dropped fraction %v, want ≤ ~2%% (≤4%% with burst variance)", frac)
	}
	if frac := float64(spiked) / float64(total); frac > 0.012 {
		t.Errorf("spiked fraction %v, want ≤ ~0.5%%", frac)
	}
}

func channelShare(tr *powermon.Trace, name string) float64 {
	for _, ch := range tr.Channels {
		if ch.Channel == name && tr.AvgPower() > 0 {
			return ch.AvgPower().Watts() / tr.AvgPower().Watts()
		}
	}
	return 1
}

func TestSanitizeRecoversPaperCorruption(t *testing.T) {
	// End-to-end over the tentpole's inner loop: corrupt with the paper
	// profile, sanitize, and the average power must come back within 2%
	// of the clean recording (gain drift alone allows ±0.4%).
	prof := Paper()
	prof.DisconnectProb = 0
	in := New(prof, 42)
	m := powermon.MobileBoardMeter()
	clean, err := m.Record(powermon.Constant(40), 1, stats.NewStream(5, "meter/e2e"))
	if err != nil {
		t.Fatal(err)
	}
	want := clean.AvgPower().Watts()
	tr := mustRecord(t, in, "e2e", 5)
	tr.Sanitize()
	got := tr.AvgPower().Watts()
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("sanitized avg power %v, clean %v (%.2f%% off)", got, want, 100*math.Abs(got-want)/want)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"none", "paper", "harsh"} {
		p, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
		if p.Name != name {
			t.Errorf("ByName(%q).Name = %q", name, p.Name)
		}
	}
	if p, err := ByName(""); err != nil || p.Name != "none" {
		t.Errorf("ByName(\"\") = %v, %v", p, err)
	}
	if _, err := ByName("volcanic"); err == nil {
		t.Error("ByName(volcanic) should fail")
	}
}

func TestRecordRejectsPermanentErrors(t *testing.T) {
	// A misconfigured meter must surface its permanent error, untouched.
	in := New(Paper(), 42)
	m := &powermon.Meter{}
	_, err := in.Record(m, powermon.Constant(1), 1, stats.NewStream(1, "x"), "x")
	if !errors.Is(err, powermon.ErrNoChannels) {
		t.Errorf("err = %v, want ErrNoChannels", err)
	}
	if powermon.IsTransient(err) {
		t.Error("config error must be permanent")
	}
}

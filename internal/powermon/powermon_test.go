package powermon

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"archline/internal/stats"
	"archline/internal/units"
)

func approx(t *testing.T, got, want, relTol float64, name string) {
	t.Helper()
	if math.Abs(got-want) > relTol*math.Abs(want)+1e-300 {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

func TestMeterValidate(t *testing.T) {
	for _, m := range []*Meter{MobileBoardMeter(), CPUSystemMeter(), PCIeGPUMeter()} {
		if err := m.Validate(); err != nil {
			t.Errorf("standard setup invalid: %v", err)
		}
	}
	bad := &Meter{SampleRate: 1024}
	if bad.Validate() == nil {
		t.Error("no channels should be rejected")
	}
	bad = MobileBoardMeter()
	bad.SampleRate = 0
	if bad.Validate() == nil {
		t.Error("zero sample rate should be rejected")
	}
	bad = MobileBoardMeter()
	bad.Channels[0].Share = 0.5
	if bad.Validate() == nil {
		t.Error("shares not summing to 1 should be rejected")
	}
	bad = MobileBoardMeter()
	bad.Channels[0].Voltage = 0
	if bad.Validate() == nil {
		t.Error("zero voltage should be rejected")
	}
	bad = MobileBoardMeter()
	bad.Channels[0].CalibGain = 0
	if bad.Validate() == nil {
		t.Error("zero gain should be rejected")
	}
	bad = MobileBoardMeter()
	bad.Channels[0].Share = -1
	if bad.Validate() == nil {
		t.Error("negative share should be rejected")
	}
	bad = &Meter{SampleRate: 1024, Channels: make([]Channel, 9)}
	if bad.Validate() == nil {
		t.Error("more than 8 channels should be rejected")
	}
}

func TestEffectiveRateAggregateCap(t *testing.T) {
	// 3 channels at 1024 Hz each = 3072 aggregate: exactly at the cap.
	m := PCIeGPUMeter()
	approx(t, m.EffectiveRate(), 1024, 1e-12, "3-channel rate")
	// 4 channels would exceed 3072: shared down to 768 Hz each.
	m.Channels = append(m.Channels, Channel{Name: "x", Voltage: 12, Share: 0, CalibGain: 1})
	m.Channels[0].Share = 0.24
	approx(t, m.EffectiveRate(), 768, 1e-12, "4-channel rate")
	// Uncapped meter keeps its rate.
	m.MaxAggregate = 0
	approx(t, m.EffectiveRate(), 1024, 1e-12, "uncapped")
}

func TestRecordConstantNoiseless(t *testing.T) {
	m := MobileBoardMeter()
	tr, err := m.Record(Constant(10), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, float64(tr.AvgPower()), 10, 1e-12, "noiseless constant power")
	approx(t, float64(tr.Energy()), 10, 1e-12, "noiseless energy")
	if tr.SampleCount() != 1024 {
		t.Errorf("1 s at 1024 Hz should give 1024 samples, got %d", tr.SampleCount())
	}
}

func TestRecordMultiRailSplitsAndSums(t *testing.T) {
	m := PCIeGPUMeter()
	// Remove calibration error for exactness.
	for i := range m.Channels {
		m.Channels[i].CalibGain = 1
		m.Channels[i].NoiseSD = 0
	}
	tr, err := m.Record(Constant(250), 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, float64(tr.AvgPower()), 250, 1e-12, "rails sum to device power")
	// Each rail carries its share.
	approx(t, float64(tr.Channels[0].AvgPower()), 250*0.24, 1e-12, "pcie slot share")
	approx(t, float64(tr.Channels[1].AvgPower()), 250*0.47, 1e-12, "8-pin share")
}

func TestRecordTimeVaryingSignal(t *testing.T) {
	// Ramp from 0 to 100 W over 1 s: average 50 W.
	sig := func(ts units.Time) units.Power { return units.Power(100 * float64(ts)) }
	m := MobileBoardMeter()
	m.Channels[0].CalibGain = 1
	m.Channels[0].NoiseSD = 0
	tr, err := m.Record(sig, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, float64(tr.AvgPower()), 50, 1e-3, "ramp average")
}

func TestRecordNoiseUnbiased(t *testing.T) {
	m := MobileBoardMeter()
	m.Channels[0].CalibGain = 1 // keep only zero-mean noise
	rng := stats.NewStream(99, "powermon-test")
	tr, err := m.Record(Constant(20), 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	// 2048 noisy samples at 1% SD: mean within ~0.1%.
	approx(t, float64(tr.AvgPower()), 20, 0.005, "noisy mean")
}

func TestRecordCalibrationBias(t *testing.T) {
	m := MobileBoardMeter()
	m.Channels[0].CalibGain = 1.05
	m.Channels[0].NoiseSD = 0
	rng := stats.NewStream(1, "bias")
	tr, err := m.Record(Constant(100), 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	// 5% gain error shows up as ~5% power bias.
	approx(t, float64(tr.AvgPower()), 105, 0.01, "calibration bias")
}

func TestRecordShortRun(t *testing.T) {
	m := MobileBoardMeter()
	// A 100 microsecond run is far below one sampling interval; the meter
	// still returns a single sample per channel.
	tr, err := m.Record(Constant(5), units.Time(100e-6), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.SampleCount() != 1 {
		t.Errorf("short run should yield 1 sample, got %d", tr.SampleCount())
	}
	approx(t, float64(tr.AvgPower()), 5, 1e-12, "short-run power")
}

func TestRecordErrors(t *testing.T) {
	m := MobileBoardMeter()
	if _, err := m.Record(Constant(1), 0, nil); err == nil {
		t.Error("zero duration should error")
	}
	if _, err := m.Record(nil, 1, nil); err == nil {
		t.Error("nil signal should error")
	}
	bad := &Meter{SampleRate: 1024}
	if _, err := bad.Record(Constant(1), 1, nil); err == nil {
		t.Error("invalid meter should error")
	}
}

// TestRecordRejectsOverlongRuns pins the per-channel sample bound: the
// longest admissible run records, and a longer or infinite one fails
// permanently before anything is allocated for it.
func TestRecordRejectsOverlongRuns(t *testing.T) {
	m := MobileBoardMeter()
	rate := m.EffectiveRate()
	tr, err := m.Record(Constant(1), units.Time(maxTraceSamples/rate), nil)
	if err != nil {
		t.Fatalf("run at the bound: %v", err)
	}
	if got := tr.SampleCount(); got != maxTraceSamples {
		t.Errorf("run at the bound recorded %d samples, want %d", got, maxTraceSamples)
	}
	for _, d := range []units.Time{
		units.Time((maxTraceSamples + 1) / rate),
		units.Time(1e30),
		units.Time(math.Inf(1)),
	} {
		_, err := m.Record(Constant(1), d, nil)
		if !errors.Is(err, ErrTraceTooLong) || IsTransient(err) {
			t.Errorf("Record(%v s) = %v, want permanent ErrTraceTooLong", d.Seconds(), err)
		}
	}
}

func TestEmptyTraceAccessors(t *testing.T) {
	ct := &ChannelTrace{}
	if ct.AvgPower() != 0 {
		t.Error("empty channel trace power should be 0")
	}
	tr := &Trace{}
	if tr.AvgPower() != 0 || tr.SampleCount() != 0 {
		t.Error("empty trace accessors")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	m := CPUSystemMeter()
	rng := stats.NewStream(7, "csv")
	tr, err := m.Record(Constant(80), 0.25, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Channels) != len(tr.Channels) {
		t.Fatalf("channel count: got %d want %d", len(back.Channels), len(tr.Channels))
	}
	approx(t, float64(back.AvgPower()), float64(tr.AvgPower()), 1e-9, "round-trip power")
	approx(t, float64(back.Duration), float64(tr.Duration), 0.01, "round-trip duration")
	for c := range tr.Channels {
		if back.Channels[c].Channel != tr.Channels[c].Channel {
			t.Error("channel names should round-trip in order")
		}
		if len(back.Channels[c].Samples) != len(tr.Channels[c].Samples) {
			t.Error("sample counts should round-trip")
		}
	}
}

// Property: for any constant power and duration, noiseless measurement is
// exact and energy = power * duration.
func TestQuickConstantExact(t *testing.T) {
	f := func(pRaw, dRaw float64) bool {
		p := math.Abs(math.Mod(pRaw, 1000))
		d := 0.001 + math.Abs(math.Mod(dRaw, 10))
		if math.IsNaN(p) || math.IsNaN(d) {
			return true
		}
		m := MobileBoardMeter()
		m.Channels[0].CalibGain = 1
		m.Channels[0].NoiseSD = 0
		tr, err := m.Record(Constant(units.Power(p)), units.Time(d), nil)
		if err != nil {
			return false
		}
		return math.Abs(float64(tr.AvgPower())-p) <= 1e-9*(p+1) &&
			math.Abs(float64(tr.Energy())-p*d) <= 1e-9*(p*d+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: CSV round trip preserves average power for arbitrary noisy
// recordings.
func TestQuickCSVRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		m := PCIeGPUMeter()
		rng := stats.NewStream(seed, "quick-csv")
		tr, err := m.Record(Constant(100), 0.05, rng)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			return false
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		return math.Abs(float64(back.AvgPower()-tr.AvgPower())) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// The sentinels ReadCSV returns.
var (
	ErrEmptyTrace     = fmt.Errorf("powermon: empty trace: %w", ErrPermanent)
	ErrMalformedTrace = fmt.Errorf("powermon: malformed trace row: %w", ErrPermanent)
)

// ReadCSV parses a trace written by WriteCSV. The duration is recovered
// as the latest timestamp plus half the median sampling interval.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) < 2 {
		return nil, ErrEmptyTrace
	}
	byChan := map[string][]Sample{}
	var order []string
	maxT := 0.0
	for _, row := range rows[1:] {
		if len(row) != 4 {
			return nil, fmt.Errorf("row %v: %w", row, ErrMalformedTrace)
		}
		ts, err1 := strconv.ParseFloat(row[1], 64)
		v, err2 := strconv.ParseFloat(row[2], 64)
		i, err3 := strconv.ParseFloat(row[3], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("row %v: %w", row, ErrMalformedTrace)
		}
		if _, ok := byChan[row[0]]; !ok {
			order = append(order, row[0])
		}
		byChan[row[0]] = append(byChan[row[0]], Sample{T: units.Time(ts), V: v, I: i})
		if ts > maxT {
			maxT = ts
		}
	}
	tr := &Trace{}
	for _, name := range order {
		ss := byChan[name]
		sort.Slice(ss, func(a, b int) bool { return ss[a].T < ss[b].T })
		tr.Channels = append(tr.Channels, ChannelTrace{Channel: name, Samples: ss})
	}
	// Recover duration: samples are mid-interval, so the run extends half
	// an interval past the last sample.
	first := tr.Channels[0].Samples
	if len(first) >= 2 {
		dt := (first[1].T - first[0].T).Seconds()
		tr.Duration = units.Time(maxT + dt/2)
	} else {
		tr.Duration = units.Time(2 * maxT)
	}
	return tr, nil
}

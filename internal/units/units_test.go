package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFormatSI(t *testing.T) {
	cases := []struct {
		v    float64
		unit string
		sig  int
		want string
	}{
		{4.02e12, "flop/s", 3, "4.02 Tflop/s"},
		{240e9, "B/s", 3, "240 GB/s"},
		{518e-12, "J/B", 3, "518 pJ/B"},
		{30.4e-12, "J/flop", 3, "30.4 pJ/flop"},
		{1.13e-9, "J/B", 3, "1.13 nJ/B"},
		{16e9, "flop/J", 2, "16 Gflop/J"},
		{123, "W", 3, "123 W"},
		{0, "W", 3, "0 W"},
		{-2.5e6, "flop", 2, "-2.5 Mflop"},
		{999.96e9, "B/s", 3, "1 TB/s"}, // rounding promotes the prefix
		{1e-30, "J", 3, "1e-06 yJ"},    // saturates at the smallest prefix
		{1, "s", 3, "1 s"},
		{0.001, "s", 3, "1 ms"},
		{1536, "Hz", 4, "1.536 kHz"},
	}
	for _, c := range cases {
		if got := FormatSI(c.v, c.unit, c.sig); got != c.want {
			t.Errorf("FormatSI(%g,%q,%d) = %q, want %q", c.v, c.unit, c.sig, got, c.want)
		}
	}
}

func TestFormatSINonFinite(t *testing.T) {
	if got := FormatSI(math.Inf(1), "W", 3); got != "+Inf W" {
		t.Errorf("inf: got %q", got)
	}
	if got := FormatSI(math.NaN(), "W", 3); got != "NaN W" {
		t.Errorf("nan: got %q", got)
	}
}

func TestFormatIntensity(t *testing.T) {
	cases := []struct {
		v    Intensity
		want string
	}{
		{0.125, "1/8"},
		{0.25, "1/4"},
		{0.5, "1/2"},
		{1, "1"},
		{4, "4"},
		{256, "256"},
		{0.3, "1/3.33"}, // 1/0.3 is not integral -> falls through? no: inv=3.33 not integral
	}
	// fix expectation for 0.3: not a unit fraction, >0 and <1 -> falls to trimFloat
	cases[6].want = "0.3"
	for _, c := range cases {
		if got := FormatIntensity(c.v); got != c.want {
			t.Errorf("FormatIntensity(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestConversionsRoundTrip(t *testing.T) {
	r := GFlopPerSec(100)
	if got := r.Inverse().Inverse(); math.Abs(float64(got-r)) > 1e-3 {
		t.Errorf("FlopRate inverse round trip: %v != %v", got, r)
	}
	b := GBPerSec(25.6)
	if got := b.Inverse().Inverse(); math.Abs(float64(got-b)) > 1e-3 {
		t.Errorf("ByteRate inverse round trip: %v != %v", got, b)
	}
}

func TestDerivedAccessors(t *testing.T) {
	cases := []struct {
		name string
		got  float64
		want float64
	}{
		{"FlopRate.FlopsPerSec", FlopRate(4.02e12).FlopsPerSec(), 4.02e12},
		{"ByteRate.BytesPerSec", ByteRate(240e9).BytesPerSec(), 240e9},
		{"AccessRate.AccessesPerSec", AccessRate(968e6).AccessesPerSec(), 968e6},
		{"TimePerFlop.SecondsPerFlop", TimePerFlop(2.5e-13).SecondsPerFlop(), 2.5e-13},
		{"TimePerByte.SecondsPerByte", TimePerByte(4.2e-12).SecondsPerByte(), 4.2e-12},
		{"EnergyPerFlop.JoulesPerFlop", EnergyPerFlop(30.4e-12).JoulesPerFlop(), 30.4e-12},
		{"EnergyPerByte.JoulesPerByte", EnergyPerByte(267e-12).JoulesPerByte(), 267e-12},
		{"EnergyPerAccess.JoulesPerAccess", EnergyPerAccess(48e-9).JoulesPerAccess(), 48e-9},
		{"FlopsPerJoule.FlopsPerJoule", FlopsPerJoule(16e9).FlopsPerJoule(), 16e9},
		{"BytesPerJoule.BytesPerJoule", BytesPerJoule(1.3e9).BytesPerJoule(), 1.3e9},
		{"Accesses.Count", Accesses(1024).Count(), 1024},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestEnergyPowerTime(t *testing.T) {
	e := Energy(100)
	tt := Time(4)
	p := e.Over(tt)
	if p != 25 {
		t.Fatalf("100 J over 4 s = %v W, want 25", p)
	}
	if back := p.For(tt); back != e {
		t.Fatalf("25 W for 4 s = %v J, want 100", back)
	}
}

func TestDivisionByZeroYieldsInf(t *testing.T) {
	if !math.IsInf(float64(Energy(1).Over(0)), 1) {
		t.Error("Energy.Over(0) should be +Inf")
	}
	if !math.IsInf(float64(Flops(1).Rate(0)), 1) {
		t.Error("Flops.Rate(0) should be +Inf")
	}
	if !math.IsInf(float64(Bytes(1).Rate(0)), 1) {
		t.Error("Bytes.Rate(0) should be +Inf")
	}
	if !math.IsInf(float64(Flops(1).PerJoule(0)), 1) {
		t.Error("Flops.PerJoule(0) should be +Inf")
	}
	if !math.IsInf(float64(FlopRate(0).Inverse()), 1) {
		t.Error("FlopRate(0).Inverse should be +Inf")
	}
	if !math.IsInf(float64(Flops(1).Intensity(0)), 1) {
		t.Error("Intensity with Q=0 should be +Inf")
	}
}

func TestIntensityBytes(t *testing.T) {
	w := GFlops(8)
	i := Intensity(2)
	q := i.Bytes(w)
	if got := w.Intensity(q); math.Abs(float64(got-i)) > 1e-12 {
		t.Errorf("Intensity/Bytes round trip: got %v want %v", got, i)
	}
}

func TestPowerPerOp(t *testing.T) {
	// GTX Titan-ish: 30.4 pJ/flop at 4.02 Tflop/s is ~122 W of flop power.
	pf := PowerPerFlop(PicoJoulePerFlop(30.4), GFlopPerSec(4020).Inverse())
	if math.Abs(float64(pf)-122.2) > 0.2 {
		t.Errorf("pi_flop = %v, want ~122.2 W", pf)
	}
	pm := PowerPerByte(PicoJoulePerByte(267), GBPerSec(239).Inverse())
	if math.Abs(float64(pm)-63.8) > 0.2 {
		t.Errorf("pi_mem = %v, want ~63.8 W", pm)
	}
	if !math.IsInf(float64(PowerPerFlop(1, 0)), 1) {
		t.Error("PowerPerFlop with tau=0 should be +Inf")
	}
	if !math.IsInf(float64(PowerPerByte(1, 0)), 1) {
		t.Error("PowerPerByte with tau=0 should be +Inf")
	}
}

func TestMagnitudeConstructors(t *testing.T) {
	if GFlops(2) != 2e9 {
		t.Error("GFlops")
	}
	if TFlops(3) != 3e12 {
		t.Error("TFlops")
	}
	if KiB(1) != 1024 {
		t.Error("KiB")
	}
	if MiB(1) != 1<<20 {
		t.Error("MiB")
	}
	if GB(1) != 1e9 {
		t.Error("GB")
	}
	if MAccPerSec(1) != 1e6 {
		t.Error("MAccPerSec")
	}
	if math.Abs(float64(NanoJoulePerAccess(48))-48e-9) > 1e-21 {
		t.Error("NanoJoulePerAccess")
	}
}

// Property: round-tripping rate<->cost is the identity for positive finite
// values.
func TestQuickInverseRoundTrip(t *testing.T) {
	f := func(v float64) bool {
		v = math.Abs(v)
		if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) || v < 1e-300 || v > 1e300 {
			return true
		}
		r := FlopRate(v)
		back := r.Inverse().Inverse()
		return math.Abs(float64(back)-v) <= 1e-12*v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: FormatSI never panics and always contains the unit suffix.
func TestQuickFormatSITotal(t *testing.T) {
	f := func(v float64, sig uint8) bool {
		s := FormatSI(v, "X", int(sig%8))
		return len(s) > 0 && s[len(s)-1] == 'X'
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: intensity of (W, W/I) recovers I.
func TestQuickIntensityRoundTrip(t *testing.T) {
	f := func(w, i float64) bool {
		w, i = math.Abs(w), math.Abs(i)
		if w < 1e-6 || i < 1e-6 || w > 1e30 || i > 1e30 {
			return true
		}
		q := Intensity(i).Bytes(Flops(w))
		got := Flops(w).Intensity(q)
		return math.Abs(float64(got)-i) <= 1e-9*i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoundSig(t *testing.T) {
	if roundSig(999.96, 3) != 1000 {
		t.Errorf("roundSig(999.96,3) = %v", roundSig(999.96, 3))
	}
	if roundSig(0, 3) != 0 {
		t.Error("roundSig(0)")
	}
	if roundSig(123.456, 4) != 123.5 {
		t.Errorf("roundSig(123.456,4) = %v", roundSig(123.456, 4))
	}
}

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"64Mi", 64 << 20},
		{"8Ki", 8 << 10},
		{"1Gi", 1 << 30},
		{"4096", 4096},
		{"0.5Mi", 512 << 10},
	}
	for _, c := range cases {
		got, err := ParseSize(c.in)
		if err != nil {
			t.Fatalf("ParseSize(%q): %v", c.in, err)
		}
		if math.Abs(float64(got)-c.want) > 1e-9 {
			t.Errorf("ParseSize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "x", "-1Ki", "0", "InfMi", "12Qi3"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) should error", bad)
		}
	}
}

// Package units provides typed physical quantities and SI engineering
// formatting for the time/energy/power analysis in this repository.
//
// All quantities are float64s in SI base units (seconds, joules, watts,
// bytes, flops). Distinct named types keep the model code honest about
// what is being multiplied with what: the compiler rejects adding a time
// to an energy, and conversions are explicit methods that carry the
// physical meaning (e.g. Energy.Over(Time) is Power).
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Time is a duration in seconds.
type Time float64

// Energy is an amount of energy in joules.
type Energy float64

// Power is an instantaneous or average power in watts.
type Power float64

// Flops is a count of floating-point operations. It is fractional so that
// averages and model predictions compose without rounding.
type Flops float64

// Bytes is a count of bytes moved. Fractional for the same reason as Flops.
type Bytes float64

// Accesses is a count of (random) memory accesses.
type Accesses float64

// Intensity is the operational (arithmetic) intensity of a computation in
// flops per byte, the x-axis of every roofline in the paper.
type Intensity float64

// FlopRate is a computational throughput in flop/s.
type FlopRate float64

// ByteRate is a memory bandwidth in bytes/s.
type ByteRate float64

// AccessRate is a random-access throughput in accesses/s.
type AccessRate float64

// TimePerFlop is a throughput-reciprocal cost in seconds per flop (the
// model's tau_flop).
type TimePerFlop float64

// TimePerByte is seconds per byte (the model's tau_mem).
type TimePerByte float64

// EnergyPerFlop is joules per flop (the model's epsilon_flop).
type EnergyPerFlop float64

// EnergyPerByte is joules per byte (the model's epsilon_mem and the
// per-cache-level epsilons).
type EnergyPerByte float64

// EnergyPerAccess is joules per random access (the model's epsilon_rand).
type EnergyPerAccess float64

// FlopsPerJoule is an energy efficiency in flop/J.
type FlopsPerJoule float64

// BytesPerJoule is a memory energy efficiency in B/J.
type BytesPerJoule float64

// Seconds returns t as a plain float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) }

// Joules returns e as a plain float64 number of joules.
func (e Energy) Joules() float64 { return float64(e) }

// Watts returns p as a plain float64 number of watts.
func (p Power) Watts() float64 { return float64(p) }

// Count returns w as a plain float64 number of flops.
func (w Flops) Count() float64 { return float64(w) }

// Count returns q as a plain float64 number of bytes.
func (q Bytes) Count() float64 { return float64(q) }

// Count returns a as a plain float64 number of accesses.
func (a Accesses) Count() float64 { return float64(a) }

// Ratio returns i as a plain float64 flop:byte ratio.
func (i Intensity) Ratio() float64 { return float64(i) }

// FlopsPerSec returns r as a plain float64 throughput in flop/s.
func (r FlopRate) FlopsPerSec() float64 { return float64(r) }

// BytesPerSec returns r as a plain float64 bandwidth in B/s.
func (r ByteRate) BytesPerSec() float64 { return float64(r) }

// AccessesPerSec returns r as a plain float64 rate in accesses/s.
func (r AccessRate) AccessesPerSec() float64 { return float64(r) }

// SecondsPerFlop returns t as a plain float64 cost in s/flop.
func (t TimePerFlop) SecondsPerFlop() float64 { return float64(t) }

// SecondsPerByte returns t as a plain float64 cost in s/B.
func (t TimePerByte) SecondsPerByte() float64 { return float64(t) }

// JoulesPerFlop returns e as a plain float64 energy cost in J/flop.
func (e EnergyPerFlop) JoulesPerFlop() float64 { return float64(e) }

// JoulesPerByte returns e as a plain float64 energy cost in J/B.
func (e EnergyPerByte) JoulesPerByte() float64 { return float64(e) }

// JoulesPerAccess returns e as a plain float64 energy cost in J/access.
func (e EnergyPerAccess) JoulesPerAccess() float64 { return float64(e) }

// FlopsPerJoule returns e as a plain float64 efficiency in flop/J.
func (e FlopsPerJoule) FlopsPerJoule() float64 { return float64(e) }

// BytesPerJoule returns e as a plain float64 efficiency in B/J.
func (e BytesPerJoule) BytesPerJoule() float64 { return float64(e) }

// Over divides an energy by a time, yielding the average power.
func (e Energy) Over(t Time) Power {
	if t <= 0 {
		return Power(math.Inf(1))
	}
	return Power(float64(e) / float64(t))
}

// For integrates a constant power over a duration, yielding energy.
func (p Power) For(t Time) Energy { return Energy(float64(p) * float64(t)) }

// Rate converts a flop count over a duration into a throughput.
func (w Flops) Rate(t Time) FlopRate {
	if t <= 0 {
		return FlopRate(math.Inf(1))
	}
	return FlopRate(float64(w) / float64(t))
}

// Rate converts a byte count over a duration into a bandwidth.
func (q Bytes) Rate(t Time) ByteRate {
	if t <= 0 {
		return ByteRate(math.Inf(1))
	}
	return ByteRate(float64(q) / float64(t))
}

// PerJoule converts a flop count and an energy into an energy efficiency.
func (w Flops) PerJoule(e Energy) FlopsPerJoule {
	if e <= 0 {
		return FlopsPerJoule(math.Inf(1))
	}
	return FlopsPerJoule(float64(w) / float64(e))
}

// PerJoule converts a byte count and an energy into a memory efficiency.
func (q Bytes) PerJoule(e Energy) BytesPerJoule {
	if e <= 0 {
		return BytesPerJoule(math.Inf(1))
	}
	return BytesPerJoule(float64(q) / float64(e))
}

// Inverse converts a throughput into a per-operation time cost.
func (r FlopRate) Inverse() TimePerFlop {
	if r <= 0 {
		return TimePerFlop(math.Inf(1))
	}
	return TimePerFlop(1 / float64(r))
}

// Inverse converts a bandwidth into a per-byte time cost.
func (r ByteRate) Inverse() TimePerByte {
	if r <= 0 {
		return TimePerByte(math.Inf(1))
	}
	return TimePerByte(1 / float64(r))
}

// Inverse converts a per-flop time cost back into a throughput.
func (t TimePerFlop) Inverse() FlopRate {
	if t <= 0 {
		return FlopRate(math.Inf(1))
	}
	return FlopRate(1 / float64(t))
}

// Inverse converts a per-byte time cost back into a bandwidth.
func (t TimePerByte) Inverse() ByteRate {
	if t <= 0 {
		return ByteRate(math.Inf(1))
	}
	return ByteRate(1 / float64(t))
}

// Intensity computes the flop:Byte ratio W/Q of a computation.
func (w Flops) Intensity(q Bytes) Intensity {
	if q <= 0 {
		return Intensity(math.Inf(1))
	}
	return Intensity(float64(w) / float64(q))
}

// Bytes returns the byte volume implied by w flops at intensity i (Q = W/I).
func (i Intensity) Bytes(w Flops) Bytes {
	if i <= 0 {
		return Bytes(math.Inf(1))
	}
	return Bytes(float64(w) / float64(i))
}

// PowerPerFlop is the model's pi_flop = eps_flop / tau_flop: the power drawn
// when executing flops at peak throughput.
func PowerPerFlop(eps EnergyPerFlop, tau TimePerFlop) Power {
	if tau <= 0 {
		return Power(math.Inf(1))
	}
	return Power(float64(eps) / float64(tau))
}

// PowerPerByte is the model's pi_mem = eps_mem / tau_mem: the power drawn
// when streaming memory at peak bandwidth.
func PowerPerByte(eps EnergyPerByte, tau TimePerByte) Power {
	if tau <= 0 {
		return Power(math.Inf(1))
	}
	return Power(float64(eps) / float64(tau))
}

// prefixes maps exponent/3 steps to SI prefixes. Index 8 is the empty
// prefix (10^0); the table spans 10^-24 .. 10^24.
var prefixes = []string{"y", "z", "a", "f", "p", "n", "µ", "m", "", "k", "M", "G", "T", "P", "E", "Z", "Y"}

const prefixZero = 8 // index of "" in prefixes

// FormatSI renders value with an SI engineering prefix and the given unit
// suffix, using sig significant digits: FormatSI(4.02e12, "flop/s", 3) ==
// "4.02 Tflop/s". Zero renders without a prefix; non-finite values render
// via %g. Values outside the prefix table saturate at the table edges.
func FormatSI(value float64, unit string, sig int) string {
	if sig < 1 {
		sig = 1
	}
	if value == 0 {
		return trimFloat(0, sig) + " " + unit
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return fmt.Sprintf("%g %s", value, unit)
	}
	neg := ""
	v := value
	if v < 0 {
		neg = "-"
		v = -v
	}
	exp := int(math.Floor(math.Log10(v) / 3))
	idx := prefixZero + exp
	if idx < 0 {
		idx = 0
	}
	if idx >= len(prefixes) {
		idx = len(prefixes) - 1
	}
	scaled := v / math.Pow(1000, float64(idx-prefixZero))
	// Rounding can push the mantissa to 1000 (e.g. 999.96 at 3 sig figs);
	// promote to the next prefix when it does.
	if rounded := roundSig(scaled, sig); rounded >= 1000 && idx+1 < len(prefixes) {
		idx++
		scaled = v / math.Pow(1000, float64(idx-prefixZero))
	}
	return neg + trimFloat(roundSig(scaled, sig), sig) + " " + prefixes[idx] + unit
}

// roundSig rounds v to sig significant digits.
func roundSig(v float64, sig int) float64 {
	if v == 0 {
		return 0
	}
	mag := math.Ceil(math.Log10(math.Abs(v)))
	factor := math.Pow(10, float64(sig)-mag)
	return math.Round(v*factor) / factor
}

// trimFloat formats v at sig significant digits without trailing zeros.
func trimFloat(v float64, sig int) string {
	s := fmt.Sprintf("%.*g", sig, v)
	return s
}

// FormatTime renders a duration with an SI prefix ("1.3 ms").
func FormatTime(t Time) string { return FormatSI(float64(t), "s", 3) }

// FormatEnergy renders an energy with an SI prefix ("518 pJ").
func FormatEnergy(e Energy) string { return FormatSI(float64(e), "J", 3) }

// FormatPower renders a power with an SI prefix ("123 W").
func FormatPower(p Power) string { return FormatSI(float64(p), "W", 3) }

// FormatFlopRate renders a throughput as in the paper's tables
// ("4.02 Tflop/s").
func FormatFlopRate(r FlopRate) string { return FormatSI(float64(r), "flop/s", 3) }

// FormatByteRate renders a bandwidth ("240 GB/s").
func FormatByteRate(r ByteRate) string { return FormatSI(float64(r), "B/s", 3) }

// FormatAccessRate renders a random-access throughput ("968 Macc/s").
func FormatAccessRate(r AccessRate) string { return FormatSI(float64(r), "acc/s", 3) }

// FormatEnergyPerFlop renders a per-flop energy ("30.4 pJ/flop").
func FormatEnergyPerFlop(e EnergyPerFlop) string { return FormatSI(float64(e), "J/flop", 3) }

// FormatEnergyPerByte renders a per-byte energy ("267 pJ/B").
func FormatEnergyPerByte(e EnergyPerByte) string { return FormatSI(float64(e), "J/B", 3) }

// FormatEnergyPerAccess renders a per-access energy ("48 nJ/access").
func FormatEnergyPerAccess(e EnergyPerAccess) string { return FormatSI(float64(e), "J/access", 3) }

// FormatFlopsPerJoule renders an energy efficiency ("16 Gflop/J").
func FormatFlopsPerJoule(e FlopsPerJoule) string { return FormatSI(float64(e), "flop/J", 3) }

// FormatBytesPerJoule renders a memory energy efficiency ("1.3 GB/J").
func FormatBytesPerJoule(e BytesPerJoule) string { return FormatSI(float64(e), "B/J", 3) }

// FormatIntensity renders an intensity as the paper's axes do: powers of
// two appear as fractions ("1/8", "4"), everything else at 3 significant
// digits.
func FormatIntensity(i Intensity) string {
	v := float64(i)
	if v > 0 && math.Abs(v-math.Round(v)) < 1e-9*math.Max(v, 1) && math.Round(v) >= 1 {
		return fmt.Sprintf("%d", int(math.Round(v)))
	}
	if v > 0 && v < 1 {
		inv := 1 / v
		if math.Abs(inv-math.Round(inv)) < 1e-9*inv {
			return fmt.Sprintf("1/%d", int(math.Round(inv)))
		}
	}
	return trimFloat(roundSig(v, 3), 3)
}

// GFlops and TFlops build flop counts from conventional magnitudes.
func GFlops(v float64) Flops { return Flops(v * 1e9) }

// TFlops returns v trillion flops.
func TFlops(v float64) Flops { return Flops(v * 1e12) }

// KiB and MiB build byte counts from binary magnitudes (working-set
// sizes are naturally binary).
func KiB(v float64) Bytes { return Bytes(v * 1024) }

// MiB returns v binary megabytes.
func MiB(v float64) Bytes { return Bytes(v * 1024 * 1024) }

// GB builds a decimal gigabyte count (bandwidth contexts use decimal).
func GB(v float64) Bytes { return Bytes(v * 1e9) }

// GFlopPerSec builds a throughput from Gflop/s, the unit of Table I.
func GFlopPerSec(v float64) FlopRate { return FlopRate(v * 1e9) }

// GBPerSec builds a bandwidth from GB/s (decimal), the unit of Table I.
func GBPerSec(v float64) ByteRate { return ByteRate(v * 1e9) }

// MAccPerSec builds an access rate from Macc/s, the unit of Table I.
func MAccPerSec(v float64) AccessRate { return AccessRate(v * 1e6) }

// PicoJoulePerFlop builds a per-flop energy from pJ/flop, Table I's unit.
func PicoJoulePerFlop(v float64) EnergyPerFlop { return EnergyPerFlop(v * 1e-12) }

// PicoJoulePerByte builds a per-byte energy from pJ/B, Table I's unit.
func PicoJoulePerByte(v float64) EnergyPerByte { return EnergyPerByte(v * 1e-12) }

// NanoJoulePerAccess builds a per-access energy from nJ/access.
func NanoJoulePerAccess(v float64) EnergyPerAccess { return EnergyPerAccess(v * 1e-9) }

// ParseSize parses a byte count with an optional binary suffix:
// "64Mi" = 64 MiB, "8Ki", "1Gi", or a plain number of bytes. It is the
// working-set syntax the command-line tools accept.
func ParseSize(s string) (Bytes, error) {
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "Ki"):
		mult, s = 1<<10, strings.TrimSuffix(s, "Ki")
	case strings.HasSuffix(s, "Mi"):
		mult, s = 1<<20, strings.TrimSuffix(s, "Mi")
	case strings.HasSuffix(s, "Gi"):
		mult, s = 1<<30, strings.TrimSuffix(s, "Gi")
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		return 0, fmt.Errorf("units: bad size %q", s)
	}
	return Bytes(v * mult), nil
}

package model

import (
	"math"
	"testing"
	"testing/quick"

	"archline/internal/units"
)

// titanParams are the GTX Titan's fitted parameters from Table I, used
// throughout the tests as a realistic capped machine.
func titanParams() Params {
	return Params{
		TauFlop: units.GFlopPerSec(4020).Inverse(),
		TauMem:  units.GBPerSec(239).Inverse(),
		EpsFlop: units.PicoJoulePerFlop(30.4),
		EpsMem:  units.PicoJoulePerByte(267),
		Pi1:     123,
		DeltaPi: 164,
	}
}

// arndaleGPUParams are the Arndale GPU (Mali T-604) fitted parameters.
func arndaleGPUParams() Params {
	return Params{
		TauFlop: units.GFlopPerSec(33.0).Inverse(),
		TauMem:  units.GBPerSec(8.39).Inverse(),
		EpsFlop: units.PicoJoulePerFlop(84.2),
		EpsMem:  units.PicoJoulePerByte(518),
		Pi1:     1.28,
		DeltaPi: 4.83,
	}
}

func approx(t *testing.T, got, want, relTol float64, name string) {
	t.Helper()
	if math.Abs(got-want) > relTol*math.Abs(want)+1e-300 {
		t.Errorf("%s = %v, want %v (rel tol %v)", name, got, want, relTol)
	}
}

func TestValidate(t *testing.T) {
	p := titanParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := p
	bad.TauFlop = 0
	if bad.Validate() == nil {
		t.Error("tau_flop = 0 should be rejected")
	}
	bad = p
	bad.EpsMem = -1
	if bad.Validate() == nil {
		t.Error("negative eps_mem should be rejected")
	}
	bad = p
	bad.Pi1 = units.Power(math.NaN())
	if bad.Validate() == nil {
		t.Error("NaN pi_1 should be rejected")
	}
	bad = p
	bad.TauMem = units.TimePerByte(math.Inf(1))
	if bad.Validate() == nil {
		t.Error("infinite tau_mem should be rejected")
	}
}

func TestDerivedQuantitiesTitan(t *testing.T) {
	p := titanParams()
	approx(t, float64(p.PiFlop()), 122.2, 0.01, "pi_flop")
	approx(t, float64(p.PiMem()), 63.8, 0.01, "pi_mem")
	// B_tau = peak flops / peak bandwidth = 4020/239 flop per byte.
	approx(t, float64(p.TimeBalance()), 4020.0/239.0, 1e-9, "B_tau")
	approx(t, float64(p.EnergyBalance()), 267.0/30.4, 1e-9, "B_eps")
	// Titan: pi_flop + pi_mem = 186 W > DeltaPi = 164 W, so the cap binds.
	if p.Powerful() {
		t.Error("Titan should be power-capped")
	}
	lo, hi, ok := p.CapBindingRange()
	if !ok {
		t.Fatal("Titan should have a cap-binding range")
	}
	if !(0 < lo && lo < units.Intensity(float64(p.TimeBalance()))) {
		t.Errorf("B_tau^- = %v out of order with B_tau = %v", lo, p.TimeBalance())
	}
	if !(hi > units.Intensity(float64(p.TimeBalance()))) {
		t.Errorf("B_tau^+ = %v should exceed B_tau = %v", hi, p.TimeBalance())
	}
}

func TestPeakEfficienciesMatchPaper(t *testing.T) {
	// Fig. 5 panel headers: Titan 16 Gflop/J and 1.3 GB/J;
	// Arndale GPU 8.1 Gflop/J and 1.5 GB/J.
	titan := titanParams()
	approx(t, float64(titan.PeakFlopsPerJoule()), 16e9, 0.05, "Titan Gflop/J")
	approx(t, float64(titan.PeakBytesPerJoule()), 1.3e9, 0.05, "Titan GB/J")

	arndale := arndaleGPUParams()
	approx(t, float64(arndale.PeakFlopsPerJoule()), 8.1e9, 0.05, "Arndale Gflop/J")
	approx(t, float64(arndale.PeakBytesPerJoule()), 1.5e9, 0.05, "Arndale GB/J")
}

func TestStreamEnergyPerByteSectionVB(t *testing.T) {
	// Section V-B: constant-power charge pi_1*tau_mem adds 515 pJ/B to
	// Titan for a total of 782 pJ/B.
	titan := titanParams()
	approx(t, float64(titan.StreamEnergyPerByte()), 782e-12, 0.01, "Titan total pJ/B")
	arndale := arndaleGPUParams()
	approx(t, float64(arndale.StreamEnergyPerByte()), 671e-12, 0.01, "Arndale total pJ/B")
	// Xeon Phi: eps_mem 136 pJ/B + 180 W / 181 GB/s = 994 pJ/B -> 1.13 nJ/B.
	phi := Params{
		TauFlop: units.GFlopPerSec(2020).Inverse(),
		TauMem:  units.GBPerSec(181).Inverse(),
		EpsFlop: units.PicoJoulePerFlop(6.05),
		EpsMem:  units.PicoJoulePerByte(136),
		Pi1:     180,
		DeltaPi: 36.1,
	}
	approx(t, float64(phi.StreamEnergyPerByte()), 1.13e-9, 0.01, "Phi total pJ/B")
	// The inversion: Arndale < Titan < Phi despite eps_mem ordering
	// Phi < Titan < Arndale.
	if !(arndale.StreamEnergyPerByte() < titan.StreamEnergyPerByte() &&
		titan.StreamEnergyPerByte() < phi.StreamEnergyPerByte()) {
		t.Error("section V-B streaming-energy inversion does not hold")
	}
}

func TestTimeMaxOfThree(t *testing.T) {
	p := titanParams()
	w := units.GFlops(100)

	// Very high intensity: compute term dominates unless capped.
	qSmall := units.Bytes(1)
	tm := p.Time(w, qSmall)
	// At I -> inf, dynamic power is pi_flop = 122 W < DeltaPi = 164 W, so
	// Titan is compute-bound, not capped.
	approx(t, float64(tm), float64(w)*float64(p.TauFlop), 1e-9, "compute-bound time")

	// Very low intensity: memory term dominates; pi_mem = 64 W < cap.
	qBig := units.GB(100)
	wSmall := units.Flops(1)
	tm = p.Time(wSmall, qBig)
	approx(t, float64(tm), float64(qBig)*float64(p.TauMem), 1e-9, "memory-bound time")

	// At balance, Titan needs 186 W > 164 W: capped.
	qBal := units.Intensity(p.TimeBalance()).Bytes(w)
	tc := p.Time(w, qBal)
	tu := p.TimeUncapped(w, qBal)
	if float64(tc) <= float64(tu) {
		t.Errorf("capped time %v should exceed uncapped %v at balance", tc, tu)
	}
	wantCap := (float64(w)*float64(p.EpsFlop) + float64(qBal)*float64(p.EpsMem)) / float64(p.DeltaPi)
	approx(t, float64(tc), wantCap, 1e-9, "cap-bound time")
}

func TestTimeZeroDeltaPi(t *testing.T) {
	p := titanParams()
	p.DeltaPi = 0
	if !math.IsInf(float64(p.Time(1, 1)), 1) {
		t.Error("zero usable power with nonzero work should take infinite time")
	}
	// Zero work: no dynamic energy, time 0.
	if p.Time(0, 0) != 0 {
		t.Error("zero work should take zero time even with zero cap")
	}
}

func TestEnergyComposition(t *testing.T) {
	p := titanParams()
	w, q := units.GFlops(10), units.GB(1)
	e := p.Energy(w, q)
	tm := p.Time(w, q)
	want := float64(w)*float64(p.EpsFlop) + float64(q)*float64(p.EpsMem) + float64(p.Pi1)*float64(tm)
	approx(t, float64(e), want, 1e-12, "energy composition")
	if p.EnergyUncapped(w, q) > e {
		t.Error("uncapped energy should not exceed capped energy (shorter T)")
	}
}

func TestAvgPowerClosedFormMatchesRatio(t *testing.T) {
	// Eq. (7) must equal E/T for all machines and intensities.
	for _, p := range []Params{titanParams(), arndaleGPUParams()} {
		for _, i := range LogSpace(1.0/1024, 1024, 200) {
			w := units.GFlops(1)
			q := i.Bytes(w)
			ratio := float64(p.AvgPower(w, q))
			closed := float64(p.AvgPowerAt(i))
			approx(t, closed, ratio, 1e-9, "eq(7) vs E/T at I="+units.FormatIntensity(i))
		}
	}
}

func TestAvgPowerLimits(t *testing.T) {
	p := titanParams()
	// I -> inf: power tends to pi_1 + pi_flop.
	pInf := float64(p.AvgPowerAt(1 << 30))
	approx(t, pInf, float64(p.Pi1)+float64(p.PiFlop()), 1e-3, "I->inf power")
	// I -> 0: power tends to pi_1 + pi_mem.
	p0 := float64(p.AvgPowerAt(units.Intensity(math.Ldexp(1, -30))))
	approx(t, p0, float64(p.Pi1)+float64(p.PiMem()), 1e-3, "I->0 power")
	// Peak power is pi_1 + DeltaPi for a capped machine.
	approx(t, float64(p.PeakAvgPower()), float64(p.Pi1)+float64(p.DeltaPi), 1e-12, "peak power capped")
	// In the cap interval, power is exactly pi_1 + DeltaPi.
	lo, hi, _ := p.CapBindingRange()
	mid := units.Intensity(math.Sqrt(float64(lo) * float64(hi)))
	approx(t, float64(p.AvgPowerAt(mid)), float64(p.Pi1)+float64(p.DeltaPi), 1e-12, "cap-interval power")

	if !math.IsNaN(float64(p.AvgPowerAt(0))) {
		t.Error("AvgPowerAt(0) should be NaN")
	}
}

func TestAvgPowerUncappedMachine(t *testing.T) {
	// A machine with plenty of power: peak average power occurs at B_tau.
	p := titanParams()
	p.DeltaPi = 1000
	if !p.Powerful() {
		t.Fatal("machine should be uncapped with DeltaPi=1000")
	}
	peak := float64(p.AvgPowerAt(units.Intensity(float64(p.TimeBalance()))))
	approx(t, peak, float64(p.Pi1)+float64(p.PiFlop())+float64(p.PiMem()), 1e-9, "peak at B_tau")
	approx(t, float64(p.PeakAvgPower()), peak, 1e-9, "PeakAvgPower uncapped")
	if _, _, ok := p.CapBindingRange(); ok {
		t.Error("uncapped machine should report no cap-binding range")
	}
}

func TestFlopRateAt(t *testing.T) {
	p := titanParams()
	// Compute-bound at very high intensity: peak flop rate.
	approx(t, float64(p.FlopRateAt(1<<20)), 4020e9, 1e-3, "peak flop rate")
	// Memory-bound at low intensity: rate = I * bandwidth.
	i := units.Intensity(0.25)
	approx(t, float64(p.FlopRateAt(i)), 0.25*239e9, 1e-3, "memory-bound rate")
	if p.FlopRateAt(0) != 0 {
		t.Error("FlopRateAt(0) should be 0")
	}
	// Capped at balance: rate < uncapped rate.
	bal := units.Intensity(float64(p.TimeBalance()))
	if !(p.FlopRateAt(bal) < p.FlopRateAtUncapped(bal)) {
		t.Error("capped rate should be below uncapped at balance for Titan")
	}
}

func TestEnergyPerFlopAt(t *testing.T) {
	p := titanParams()
	// At I->inf, E/W -> eps_flop + pi_1*tau_flop (Titan is not
	// flop-capped since pi_flop < DeltaPi).
	want := float64(p.EpsFlop) + float64(p.Pi1)*float64(p.TauFlop)
	approx(t, float64(p.EnergyPerFlopAt(1<<30)), want, 1e-6, "E/W at I->inf")
	approx(t, 1/float64(p.PeakFlopsPerJoule()), want, 1e-9, "PeakFlopsPerJoule consistency")
	if !math.IsInf(float64(p.EnergyPerFlopAt(0)), 1) {
		t.Error("EnergyPerFlopAt(0) should be +Inf")
	}
}

func TestRegimes(t *testing.T) {
	p := titanParams()
	lo, hi, _ := p.CapBindingRange()
	cases := []struct {
		i    units.Intensity
		want Regime
	}{
		{lo / 2, MemoryBound},
		{units.Intensity(math.Sqrt(float64(lo) * float64(hi))), CapBound},
		{hi * 2, ComputeBound},
	}
	for _, c := range cases {
		if got := p.RegimeAt(c.i); got != c.want {
			t.Errorf("RegimeAt(%v) = %v, want %v", c.i, got, c.want)
		}
	}
	// Letters.
	if MemoryBound.Letter() != "M" || CapBound.Letter() != "C" || ComputeBound.Letter() != "F" {
		t.Error("regime letters should be M/C/F as in fig. 6")
	}
	if MemoryBound.String() != "memory-bound" || Regime(99).String() != "unknown" || Regime(99).Letter() != "?" {
		t.Error("regime strings")
	}

	// Uncapped machine: no cap regime anywhere.
	u := p
	u.DeltaPi = 1000
	if u.RegimeAt(units.Intensity(float64(u.TimeBalance()))/2) != MemoryBound {
		t.Error("uncapped below balance should be memory-bound")
	}
	if u.RegimeAt(units.Intensity(float64(u.TimeBalance()))*2) != ComputeBound {
		t.Error("uncapped above balance should be compute-bound")
	}
}

func TestBalanceEdgeCases(t *testing.T) {
	p := titanParams()
	// DeltaPi below pi_flop: compute-bound regime unreachable.
	q := p
	q.DeltaPi = units.Power(float64(p.PiFlop()) * 0.5)
	if !math.IsInf(float64(q.TimeBalancePlus()), 1) {
		t.Error("B_tau^+ should be +Inf when DeltaPi <= pi_flop")
	}
	// DeltaPi below pi_mem: memory-bound regime unreachable.
	r := p
	r.DeltaPi = units.Power(float64(p.PiMem()) * 0.5)
	if float64(r.TimeBalanceMinus()) != 0 {
		t.Error("B_tau^- should be 0 when DeltaPi <= pi_mem")
	}
	// Free-flop machine (eps_flop = 0): B_eps infinite, B_tau^- = B_tau.
	f := p
	f.EpsFlop = 0
	if !math.IsInf(float64(f.EnergyBalance()), 1) {
		t.Error("B_eps should be +Inf when eps_flop = 0")
	}
}

func TestThrottleFactor(t *testing.T) {
	p := titanParams()
	if tf := p.ThrottleFactor(1 << 20); math.Abs(tf-1) > 1e-9 {
		t.Errorf("compute-bound throttle = %v, want 1 (Titan has flop headroom)", tf)
	}
	bal := units.Intensity(float64(p.TimeBalance()))
	tf := p.ThrottleFactor(bal)
	want := (float64(p.PiFlop()) + float64(p.PiMem())) / float64(p.DeltaPi)
	approx(t, tf, want, 1e-9, "throttle at balance")
	if p.ThrottleFactor(0) != 1 {
		t.Error("ThrottleFactor(0) defined as 1")
	}
}

func TestWithCap(t *testing.T) {
	p := titanParams()
	h, err := p.WithCap(0.5)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, float64(h.DeltaPi), 82, 1e-12, "half cap")
	if _, err := p.WithCap(-1); err == nil {
		t.Error("negative cap fraction should error")
	}
	if _, err := p.WithCap(math.NaN()); err == nil {
		t.Error("NaN cap fraction should error")
	}
}

func TestScale(t *testing.T) {
	p := arndaleGPUParams()
	s, err := p.Scale(47)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, float64(s.PeakFlopRate()), 47*33e9, 1e-9, "scaled peak flops")
	approx(t, float64(s.PeakByteRate()), 47*8.39e9, 1e-9, "scaled bandwidth")
	approx(t, float64(s.Pi1), 47*1.28, 1e-9, "scaled pi_1")
	approx(t, float64(s.DeltaPi), 47*4.83, 1e-9, "scaled cap")
	// Balance points are scale-invariant.
	approx(t, float64(s.TimeBalance()), float64(p.TimeBalance()), 1e-9, "B_tau invariant")
	approx(t, float64(s.EnergyBalance()), float64(p.EnergyBalance()), 1e-9, "B_eps invariant")
	for _, k := range []float64{0, -3, math.Inf(1), math.NaN()} {
		if _, err := p.Scale(k); err == nil {
			t.Errorf("Scale(%v) should error", k)
		}
	}
}

func TestPredict(t *testing.T) {
	p := titanParams()
	w, q := units.GFlops(50), units.GB(1)
	pr := p.Predict(w, q)
	if pr.W != w || pr.Q != q {
		t.Error("prediction should echo workload")
	}
	approx(t, float64(pr.I), 50, 1e-9, "intensity")
	approx(t, float64(pr.Time), float64(p.Time(w, q)), 0, "time")
	approx(t, float64(pr.Energy), float64(p.Energy(w, q)), 0, "energy")
	approx(t, float64(pr.AvgPower), float64(p.AvgPowerAt(50)), 1e-9, "power")
	if pr.Regime != p.RegimeAt(50) {
		t.Error("regime mismatch")
	}
}

// randomParams builds a plausible random machine from four arbitrary
// float64s (testing/quick draws), for property tests. DeltaPi is drawn
// relative to pi_flop + pi_mem, from 0.01 to 2 times it, so about half
// the machines are capped and many have a two-sided cap interval
// 0 < B_tau^- < B_tau^+ < Inf; an absolute draw of watts would dwarf
// the sub-watt pi_flop + pi_mem these rates give and leave nearly every
// machine Powerful.
func randomParams(a, b, c, d float64) Params {
	u := mantissa
	p := Params{
		TauFlop: units.TimePerFlop(1e-12 * (1 + 1e3*u(a))),
		TauMem:  units.TimePerByte(1e-11 * (1 + 1e3*u(b))),
		EpsFlop: units.EnergyPerFlop(1e-12 * (1 + 100*u(c))),
		EpsMem:  units.EnergyPerByte(1e-11 * (1 + 100*u(d))),
		Pi1:     units.Power(1 + 100*math.Mod(u(a)+u(b), 1)),
	}
	full := p.PiFlop().Watts() + p.PiMem().Watts()
	p.DeltaPi = units.Power((0.01 + 1.99*math.Mod(u(c)+u(d), 1)) * full)
	return p
}

// finMod maps an arbitrary float64, non-finite ones included, onto
// [-m, m) through its mantissa bits.
func finMod(x, m float64) float64 {
	return m * (2*mantissa(x) - 1)
}

// Property: capped time >= uncapped time; equality iff cap term does not
// dominate.
func TestQuickCappedDominatesUncapped(t *testing.T) {
	f := func(a, b, c, d, wi, ii float64) bool {
		p := randomParams(a, b, c, d)
		w := units.Flops(1 + 1e9*math.Abs(finMod(wi, 1)))
		i := units.Intensity(math.Exp(finMod(ii, 8))) // I in [e^-8, e^8]
		q := i.Bytes(w)
		return float64(p.Time(w, q)) >= float64(p.TimeUncapped(w, q))-1e-30
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: average power lies in [pi_1, pi_1 + min(DeltaPi, pi_f+pi_m)].
func TestQuickPowerBounds(t *testing.T) {
	f := func(a, b, c, d, ii float64) bool {
		p := randomParams(a, b, c, d)
		i := units.Intensity(math.Exp(finMod(ii, 10)))
		pw := float64(p.AvgPowerAt(i))
		lo := float64(p.Pi1)
		hi := float64(p.PeakAvgPower())
		return pw >= lo-1e-9*lo && pw <= hi*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: B_tau^- <= B_tau <= B_tau^+.
func TestQuickBalanceOrdering(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		p := randomParams(a, b, c, d)
		lo := float64(p.TimeBalanceMinus())
		mid := float64(p.TimeBalance())
		hi := float64(p.TimeBalancePlus())
		return lo <= mid*(1+1e-12) && mid <= hi*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: E = P*T exactly (definition consistency).
func TestQuickEnergyPowerTimeConsistency(t *testing.T) {
	f := func(a, b, c, d, wi, ii float64) bool {
		p := randomParams(a, b, c, d)
		w := units.Flops(1 + 1e9*math.Abs(finMod(wi, 1)))
		i := units.Intensity(math.Exp(finMod(ii, 8)))
		q := i.Bytes(w)
		e := float64(p.Energy(w, q))
		pt := float64(p.AvgPower(w, q)) * float64(p.Time(w, q))
		return math.Abs(e-pt) <= 1e-9*e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: time and energy are monotone non-decreasing in W and in Q.
func TestQuickMonotonicity(t *testing.T) {
	f := func(a, b, c, d, wi, qi float64) bool {
		p := randomParams(a, b, c, d)
		w := units.Flops(1 + 1e9*math.Abs(finMod(wi, 1)))
		q := units.Bytes(1 + 1e9*math.Abs(finMod(qi, 1)))
		t1, e1 := p.Time(w, q), p.Energy(w, q)
		t2, e2 := p.Time(w*2, q), p.Energy(w*2, q)
		t3, e3 := p.Time(w, q*2), p.Energy(w, q*2)
		return t2 >= t1 && e2 >= e1 && t3 >= t1 && e3 >= e1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: Scale(k) divides time by exactly k under weak scaling (same
// W, Q) for uncapped machines, and never slows the machine down.
func TestQuickScaleSpeedsUp(t *testing.T) {
	f := func(a, b, c, d, ki float64) bool {
		p := randomParams(a, b, c, d)
		k := 1 + 10*math.Abs(finMod(ki, 1))
		s, err := p.Scale(k)
		if err != nil {
			return false
		}
		w, q := units.GFlops(1), units.GB(1)
		return float64(s.Time(w, q)) <= float64(p.Time(w, q))*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: T and E are homogeneous of degree 1 in (W, Q), capped and
// uncapped, so average power is of degree 0. Scaling by c = 2^j only
// moves exponents, which commutes with rounding, so the identities hold
// bit for bit.
func TestQuickHomogeneity(t *testing.T) {
	f := func(a, b, c, d, wi, qi float64, ji int8) bool {
		p := randomParams(a, b, c, d)
		w := units.Flops(1 + 1e9*math.Abs(finMod(wi, 1)))
		q := units.Bytes(1 + 1e9*math.Abs(finMod(qi, 1)))
		k := math.Ldexp(1, int(ji)%17) // 2^j, j in [-16, 16]
		kw, kq := units.Flops(k*w.Count()), units.Bytes(k*q.Count())
		for _, pair := range [][2]float64{
			{p.Time(kw, kq).Seconds(), k * p.Time(w, q).Seconds()},
			{p.TimeUncapped(kw, kq).Seconds(), k * p.TimeUncapped(w, q).Seconds()},
			{p.Energy(kw, kq).Joules(), k * p.Energy(w, q).Joules()},
			{p.EnergyUncapped(kw, kq).Joules(), k * p.EnergyUncapped(w, q).Joules()},
			{p.AvgPower(kw, kq).Watts(), p.AvgPower(w, q).Watts()},
		} {
			//archlint:ignore floatcmp power-of-two scaling is exact, so any difference is a formula that is not homogeneous
			if pair[0] != pair[1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// dominates reports whether r names the largest term of eq. (3) at
// intensity i, to within rounding.
func dominates(p Params, i units.Intensity, r Regime) bool {
	w := units.Flops(1e9)
	q := i.Bytes(w)
	tFlop := float64(w) * float64(p.TauFlop)
	tMem := float64(q) * float64(p.TauMem)
	tCap := (float64(w)*float64(p.EpsFlop) + float64(q)*float64(p.EpsMem)) / float64(p.DeltaPi)
	tMax := math.Max(tFlop, math.Max(tMem, tCap))
	const tol = 1 + 1e-9
	switch r {
	case ComputeBound:
		return tFlop*tol >= tMax
	case MemoryBound:
		return tMem*tol >= tMax
	case CapBound:
		return tCap*tol >= tMax
	}
	return false
}

// Property: regime classification agrees with which term of eq. (3)
// actually dominates.
func TestQuickRegimeConsistency(t *testing.T) {
	f := func(a, b, c, d, ii float64) bool {
		p := randomParams(a, b, c, d)
		i := units.Intensity(math.Exp(finMod(ii, 10)))
		return dominates(p, i, p.RegimeAt(i))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: the regimes switch exactly at the balance points, in
// Params and in Kernel alike. A Powerful machine is compute-bound from
// B_tau on and memory-bound one float below it. A capped one is
// memory-bound up to B_tau^- inclusive and cap-bound one float above
// it (when B_tau^- > 0), compute-bound from B_tau^+ on and cap-bound one
// float below it (when B_tau^+ is finite). Just off each switch point,
// at B(1 ± 1e-6), the regime names the largest term of eq. (3).
func TestQuickRegimeBoundaries(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		p := randomParams(a, b, c, d)
		k := NewKernel(p)
		type point struct {
			iv   float64
			want Regime
		}
		var pts []point
		var edges []float64
		if bt := p.TimeBalance().Ratio(); p.Powerful() {
			pts = append(pts, point{bt, ComputeBound}, point{math.Nextafter(bt, 0), MemoryBound})
			edges = append(edges, bt)
		} else {
			if lo := p.TimeBalanceMinus().Ratio(); lo > 0 {
				pts = append(pts, point{lo, MemoryBound}, point{math.Nextafter(lo, math.Inf(1)), CapBound})
				edges = append(edges, lo)
			}
			if hi := p.TimeBalancePlus().Ratio(); !math.IsInf(hi, 1) {
				pts = append(pts, point{hi, ComputeBound}, point{math.Nextafter(hi, 0), CapBound})
				edges = append(edges, hi)
			}
		}
		for _, pt := range pts {
			if p.RegimeAt(units.Intensity(pt.iv)) != pt.want || k.RegimeAt(pt.iv) != pt.want {
				return false
			}
		}
		for _, e := range edges {
			for _, iv := range []float64{e * (1 - 1e-6), e * (1 + 1e-6)} {
				r := p.RegimeAt(units.Intensity(iv))
				if k.RegimeAt(iv) != r || !dominates(p, units.Intensity(iv), r) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// mantissa maps x's 52 mantissa bits onto [0, 1). testing/quick draws
// float64s of magnitude ~1e307, which are whole numbers, so reducing
// one mod 1 yields 0; its mantissa bits are what vary.
func mantissa(x float64) float64 {
	return float64(math.Float64bits(x)&(1<<52-1)) / (1 << 52)
}

// Property: a tighter cap is never faster. At cap fractions
// 0 < f1 <= f2 <= 1, time and energy at f1 are no smaller, the flop
// rate (Params and Kernel) no larger, and the average power respects
// the tighter cap, pi_1 + f1*DeltaPi. Every step of these formulas is
// a monotone IEEE operation on DeltaPi, so the order holds bit for bit.
func TestQuickCapMonotone(t *testing.T) {
	f := func(a, b, c, d, wi, ii, fa, fb float64) bool {
		p := randomParams(a, b, c, d)
		w := units.Flops(1 + 1e9*mantissa(wi))
		i := units.Intensity(math.Exp(20*mantissa(ii) - 10))
		q := i.Bytes(w)
		f1, f2 := 1-mantissa(fa), 1-mantissa(fb)
		if f1 > f2 {
			f1, f2 = f2, f1
		}
		p1, err := p.WithCap(f1)
		if err != nil {
			return false
		}
		p2, err := p.WithCap(f2)
		if err != nil {
			return false
		}
		k1, k2 := NewKernel(p1), NewKernel(p2)
		capW := (p.Pi1.Watts() + f1*p.DeltaPi.Watts()) * (1 + 1e-9)
		return p1.Time(w, q) >= p2.Time(w, q) &&
			p1.Energy(w, q) >= p2.Energy(w, q) &&
			p1.FlopRateAt(i) <= p2.FlopRateAt(i) &&
			k1.FlopRateAt(i.Ratio()) <= k2.FlopRateAt(i.Ratio()) &&
			p1.AvgPower(w, q).Watts() <= capW
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

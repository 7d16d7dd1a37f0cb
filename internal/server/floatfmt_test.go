package server

import (
	"bytes"
	"math"
	"math/big"
	"math/rand/v2"
	"strconv"
	"testing"

	"archline/internal/machine"
	"archline/internal/model"
)

// strconvJSONFloat is encoding/json's rendering of a finite float64, by
// strconv: the reference appendJSONFloat is held to.
func strconvJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// encoding/json writes e-07 as e-7.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// floatChecker compares appendJSONFloat with strconvJSONFloat, reusing
// its buffers, and fails the test on the first few mismatches.
type floatChecker struct {
	t         *testing.T
	got, want []byte
	failures  int
	checked   int
}

func (c *floatChecker) check(f float64) {
	c.checked++
	var ok bool
	c.got, ok = appendJSONFloat(c.got[:0], f)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if ok {
			c.fail(f, "rendered a non-finite value")
		}
		return
	}
	c.want = strconvJSONFloat(c.want[:0], f)
	if !ok || !bytes.Equal(c.got, c.want) {
		c.fail(f, "mismatch")
	}
}

func (c *floatChecker) fail(f float64, what string) {
	c.t.Helper()
	if c.failures++; c.failures <= 10 {
		c.t.Errorf("%s for %#016x: got %q, strconv %q", what, math.Float64bits(f), c.got, c.want)
	}
}

// checkAround checks f and its n neighbours on either side.
func (c *floatChecker) checkAround(f float64, n int) {
	c.check(f)
	up, down := f, f
	for range n {
		up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
		c.check(up)
		c.check(down)
	}
}

// TestAppendJSONFloatMatchesStrconv holds the Schubfach formatter to
// strconv's bytes, as encoding/json writes them, on: seeded random bit
// patterns; every power of two and of ten, with neighbours; the
// subnormals below 2^16 ulps and the top of the subnormal range; both
// sides of the format switches at 1e-6 and 1e21; integers below 2^53,
// which below 2^52 must take the exact-integer fast path;
// and every value of the 65,536-point default-grid streams of the
// built-ins, in both precisions.
func TestAppendJSONFloatMatchesStrconv(t *testing.T) {
	c := &floatChecker{t: t}
	rng := rand.New(rand.NewPCG(28, 1))

	for range 2_000_000 {
		c.check(math.Float64frombits(rng.Uint64()))
	}
	for e := minExp; e <= 1023; e++ {
		c.checkAround(math.Ldexp(1, e), 2)
	}
	for e := -323; e <= 308; e++ {
		f, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		if err != nil {
			t.Fatal(err)
		}
		c.checkAround(f, 2)
	}
	for m := range uint64(1 << 16) {
		c.check(math.Float64frombits(m))
		c.check(math.Float64frombits(1<<fracBits - 1 - m))
	}
	for _, f := range []float64{1e-6, 1e21} {
		c.checkAround(f, 500)
		c.checkAround(-f, 500)
	}
	// An integer in [1, 2^52) takes the fast path: its own digits.
	integer := func(n int64) {
		c.check(float64(n))
		if n < 1 || n >= 1<<52 {
			return
		}
		if d, e := shortestDecimal(math.Float64bits(float64(n))); d != uint64(n) || e != 0 {
			t.Errorf("%d: shortestDecimal gives %d*10^%d, want the integer itself", n, d, e)
		}
	}
	for n := range int64(100_000) {
		integer(n)
	}
	for range 1_000_000 {
		integer(rng.Int64N(1 << 53))
	}
	for e := 1; e <= 53; e++ {
		c.checkAround(float64(int64(1)<<e), 3)
	}

	// The streams' values: the default grid at 65,536 points.
	const points = 65536
	k0, k1 := math.Log(defaultIMin), math.Log(defaultIMax)
	pts := make([]model.Point, 0, points)
	for _, plat := range machine.All() {
		for _, precision := range []string{"single", "double"} {
			if precision == "double" && !plat.SupportsDouble() {
				continue
			}
			p, aerr := paramsFor(plat, precision)
			if aerr != nil {
				t.Fatalf("%s/%s: %v", plat.ID, precision, aerr)
			}
			k := model.NewKernel(p)
			for _, pt := range k.AppendLogSpace(pts[:0], k0, k1, 0, points, points) {
				for _, f := range []float64{pt.Intensity, pt.FlopsPerSec, pt.UncappedFlopsPerSec,
					pt.FlopsPerJoule, pt.AvgPowerW, pt.Throttle} {
					c.check(f)
				}
			}
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		c.check(f)
	}
	if c.failures > 0 {
		t.Fatalf("%d of %d values differ from strconv", c.failures, c.checked)
	}
	t.Logf("%d values match strconv", c.checked)
}

// TestPow10Table: every entry is a 126-bit number split 63/63, so
// floorLog2Pow10 is exact over the table's exponents.
func TestPow10Table(t *testing.T) {
	for k := minPow10; k <= maxPow10; k++ {
		e := pow10Table[k-minPow10]
		g := new(big.Int).Lsh(new(big.Int).SetUint64(e[0]), 63)
		g.Or(g, new(big.Int).SetUint64(e[1]))
		if e[1] > mask63 || g.BitLen() != 126 {
			t.Fatalf("k=%d: g has %d bits, low word %#x", k, g.BitLen(), e[1])
		}
	}
}

// FuzzJSONFloat holds appendJSONFloat to strconv on arbitrary bits.
// FuzzStreamChunk holds the whole point to encoding/json.
func FuzzJSONFloat(f *testing.F) {
	for _, b := range []uint64{0, 1, 10, 1 << 52, 0x3eb0c6f7a0b5ed8d, 0x444b1ae4d6e2ef50, 0x7fefffffffffffff, 1<<63 | 1} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		c := &floatChecker{t: t}
		c.check(math.Float64frombits(b))
	})
}

// BenchmarkAppendJSONFloat renders the six fields of an 8,192-point
// default-grid gtx-titan stream, per float.
func BenchmarkAppendJSONFloat(b *testing.B) {
	plat, err := machine.ByID(machine.GTXTitan)
	if err != nil {
		b.Fatal(err)
	}
	k := model.NewKernel(plat.Single)
	const points = 8192
	var vals []float64
	for _, pt := range k.AppendLogSpace(nil, math.Log(defaultIMin), math.Log(defaultIMax), 0, points, points) {
		vals = append(vals, pt.Intensity, pt.FlopsPerSec, pt.UncappedFlopsPerSec, pt.FlopsPerJoule, pt.AvgPowerW, pt.Throttle)
	}
	b.Run("schubfach", func(b *testing.B) {
		buf := make([]byte, 0, 64)
		for i := 0; i < b.N; i++ {
			buf, _ = appendJSONFloat(buf[:0], vals[i%len(vals)])
		}
	})
	b.Run("strconv", func(b *testing.B) {
		buf := make([]byte, 0, 64)
		for i := 0; i < b.N; i++ {
			buf = strconvJSONFloat(buf[:0], vals[i%len(vals)])
		}
	})
}

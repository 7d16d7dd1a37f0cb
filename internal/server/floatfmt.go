package server

import (
	"math"
	"math/big"
	"math/bits"
)

// appendJSONFloat renders floats with Schubfach (R. Giulietti, "The
// Schubfach way to render doubles", 2020), after OpenJDK 19's
// DoubleToDecimal: the shortest decimal in a double's rounding
// interval, and of two such the closer one, ties to an even digit.
// That is strconv's shortest form, which encoding/json writes. Three
// 64x128-bit products against a table of 126-bit powers of ten take the
// place of Ryū's, and the digits go out two at a time. Two steps depart
// from the Java code, whose Double.toString keeps at least two digits:
// the step that tries one digit fewer runs from two-digit candidates up,
// not three, and a subnormal goes in as it is, without Java's x10 for
// the two smallest. The Java code renders 5e-324 and 5e-323 as 4.9e-324
// and 4.9e-323. TestAppendJSONFloatMatchesStrconv and FuzzJSONFloat
// hold the bytes to strconv.

const (
	// fracBits is a double's stored significand width, and minExp the
	// binary exponent of its subnormals: a double is c*2^q with c below
	// 2^53 and q at least minExp.
	fracBits = 52
	minExp   = -1074
	// minPow10 and maxPow10 bound the decimal exponent k of a rendering,
	// the table's range.
	minPow10 = -324
	maxPow10 = 292
	mask63   = 1<<63 - 1
)

// pow10Table holds, for each k in [minPow10, maxPow10], g = floor(10^-k
// / 2^r) + 1 with r = floor(log2 10^-k) - 125, a 126-bit number, as its
// high and low 63 bits: 10^-k is g*2^r, rounded up.
var pow10Table = buildPow10Table()

func buildPow10Table() [][2]uint64 {
	table := make([][2]uint64, maxPow10-minPow10+1)
	ten := big.NewInt(10)
	for k := minPow10; k <= maxPow10; k++ {
		r := floorLog2Pow10(-k) - 125
		// g = floor(num/den) + 1, with 10^-k/2^r written as num/den.
		num, den := big.NewInt(1), big.NewInt(1)
		if k <= 0 {
			num.Exp(ten, big.NewInt(int64(-k)), nil)
		} else {
			den.Exp(ten, big.NewInt(int64(k)), nil)
		}
		if r >= 0 {
			den.Lsh(den, uint(r))
		} else {
			num.Lsh(num, uint(-r))
		}
		g := num.Quo(num, den)
		g.Add(g, big.NewInt(1))
		lo := new(big.Int).And(g, big.NewInt(mask63))
		table[k-minPow10] = [2]uint64{g.Rsh(g, 63).Uint64(), lo.Uint64()}
	}
	return table
}

// floorLog10Pow2 is floor(log10 2^e), floorLog10ThreeQuartersPow2 is
// floor(log10 (3/4)2^e) and floorLog2Pow10 is floor(log2 10^e), each
// exact over the exponents a double reaches.
func floorLog10Pow2(e int) int { return int(int64(e) * 661_971_961_083 >> 41) }

func floorLog10ThreeQuartersPow2(e int) int {
	return int((int64(e)*661_971_961_083 - 274_743_187_321) >> 41)
}

func floorLog2Pow10(e int) int { return int(int64(e) * 913_124_641_741 >> 38) }

// shortestDecimal returns the shortest decimal d*10^e that rounds to the
// positive finite double with the given bits, the closer one of two.
// d may end in zeros.
func shortestDecimal(b uint64) (d uint64, e int) {
	frac := b & (1<<fracBits - 1)
	biased := int(b >> fracBits)
	if biased == 0 {
		return schubfach(minExp, frac)
	}
	c := 1<<fracBits | frac
	q := biased + minExp - 1
	// An integer in [1, 2^52) is its own digits.
	if -fracBits <= q && q < 0 && c&(1<<-q-1) == 0 {
		return c >> -q, 0
	}
	return schubfach(q, c)
}

// schubfach returns the shortest decimal in the rounding interval of
// c*2^q, after figure 7 of Giulietti's paper.
func schubfach(q int, c uint64) (uint64, int) {
	// The interval's bounds, like c, are scaled by 4: cbl and cbr, open
	// when c is odd.
	out := c & 1
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != 1<<fracBits || q == minExp {
		cbl = cb - 2
		k = floorLog10Pow2(q)
	} else {
		// At a power of two the gap below is half the one above.
		cbl = cb - 1
		k = floorLog10ThreeQuartersPow2(q)
	}
	h := q + floorLog2Pow10(-k) + 2
	g := &pow10Table[k-minPow10]
	vb := roundToOdd(g, cb<<h)
	vbl := roundToOdd(g, cbl<<h)
	vbr := roundToOdd(g, cbr<<h)

	// s is the number of 10^k in v. One digit fewer wins if exactly one
	// of its neighbours, sp10 and tp10, is in the interval.
	s := vb >> 2
	if s >= 10 {
		sp10 := s / 10 * 10
		tp10 := sp10 + 10
		upin := vbl+out <= sp10<<2
		wpin := tp10<<2+out <= vbr
		if upin != wpin {
			if upin {
				return sp10, k
			}
			return tp10, k
		}
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	// Both are in: the closer to v, or the even one of a tie.
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// roundToOdd returns cp*g/2^127, rounded to odd: truncated, with its
// lowest bit set when any bit was dropped.
func roundToOdd(g *[2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	return vbp | (z&mask63+mask63)>>63
}

// digitPairs holds "00" through "99".
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendJSONFloat appends f exactly as encoding/json renders a float64:
// the shortest digits that round-trip, in 'f' format for 0 and for
// 1e-6 <= |f| < 1e21 and in 'e' format otherwise, its exponent without
// leading zeros ("e-7", not "e-07"); negative zero is "-0". It reports
// false for NaN and the infinities, which encoding/json refuses, and the
// caller must then drop the whole line (dst may hold a partial append).
func appendJSONFloat(dst []byte, f float64) ([]byte, bool) {
	b := math.Float64bits(f)
	if b&(0x7ff<<fracBits) == 0x7ff<<fracBits {
		return dst, false
	}
	if b>>63 != 0 {
		dst = append(dst, '-')
		b &^= 1 << 63
	}
	if b == 0 {
		return append(dst, '0'), true
	}
	d, e := shortestDecimal(b)
	for d%100 == 0 {
		d /= 100
		e += 2
	}
	if d%10 == 0 {
		d /= 10
		e++
	}
	// The digits, written from the end two at a time.
	var buf [20]byte
	i := len(buf)
	for d >= 100 {
		r := d % 100
		d /= 100
		i -= 2
		buf[i], buf[i+1] = digitPairs[2*r], digitPairs[2*r+1]
	}
	if d >= 10 {
		i -= 2
		buf[i], buf[i+1] = digitPairs[2*d], digitPairs[2*d+1]
	} else {
		i--
		buf[i] = byte('0' + d)
	}
	digits := buf[i:]
	// The value is 0.digits * 10^point.
	point := len(digits) + e
	if abs := math.Float64frombits(b); abs < 1e-6 || abs >= 1e21 {
		dst = append(dst, digits[0])
		if len(digits) > 1 {
			dst = append(dst, '.')
			dst = append(dst, digits[1:]...)
		}
		exp := point - 1
		if exp < 0 {
			dst = append(dst, 'e', '-')
			exp = -exp
		} else {
			dst = append(dst, 'e', '+')
		}
		if exp >= 100 {
			dst = append(dst, byte('0'+exp/100))
			exp %= 100
			return append(dst, digitPairs[2*exp], digitPairs[2*exp+1]), true
		}
		if exp >= 10 {
			return append(dst, digitPairs[2*exp], digitPairs[2*exp+1]), true
		}
		return append(dst, byte('0'+exp)), true
	}
	switch {
	case point <= 0:
		dst = append(dst, '0', '.')
		for ; point < 0; point++ {
			dst = append(dst, '0')
		}
		dst = append(dst, digits...)
	case point >= len(digits):
		dst = append(dst, digits...)
		for n := len(digits); n < point; n++ {
			dst = append(dst, '0')
		}
	default:
		dst = append(dst, digits[:point]...)
		dst = append(dst, '.')
		dst = append(dst, digits[point:]...)
	}
	return dst, true
}

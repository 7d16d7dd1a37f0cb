package stats

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// sortedAt is the reference Select must match: sort, then index.
func sortedAt(xs []float64, k int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[k]
}

// sameOrderStat reports whether Select's answer is the sort's: equal,
// both NaN, or both zero (a -0/+0 tie may resolve either way).
func sameOrderStat(got, want float64) bool {
	//archlint:ignore floatcmp Select's contract is the sort's exact order statistic; a tolerance would hide an off-by-one rank
	return got == want || (math.IsNaN(got) && math.IsNaN(want))
}

// gapSpacings mimics fillGaps' input: the spacings of mid-interval
// timestamps, equal up to rounding, plus a few dropped-sample gaps.
func gapSpacings(n int) []float64 {
	const dt = 1.0 / 1024
	out := make([]float64, 0, n)
	prev := 0.5 * dt
	for k := 1; len(out) < n; k++ {
		if k%97 == 0 {
			k += 30
		}
		ts := (float64(k) + 0.5) * dt
		out = append(out, ts-prev)
		prev = ts
	}
	return out
}

// selectCase is one named input.
type selectCase struct {
	name string
	xs   []float64
}

// selectCases are the shapes selection gets wrong first: NaNs, signed
// zeros, infinities, runs of equal keys, presorted input.
func selectCases() []selectCase {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	asc := make([]float64, 100)
	desc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i)
		desc[i] = float64(len(desc) - i)
	}
	return []selectCase{
		{"single", []float64{3}},
		{"pair", []float64{2, 1}},
		{"nans", []float64{nan, 1, nan, -1, nan}},
		{"all nan", []float64{nan, nan, nan}},
		{"signed zeros", []float64{0, negZero, 0, negZero, 1, -1}},
		{"infinities", []float64{inf, -inf, 0, nan, inf, -inf, 5}},
		{"all equal", []float64{7, 7, 7, 7, 7, 7, 7, 7, 7}},
		{"two values", []float64{1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1}},
		{"ascending", asc},
		{"descending", desc},
		{"spacings", gapSpacings(500)},
	}
}

func TestSelectMatchesSort(t *testing.T) {
	for _, tc := range selectCases() {
		for k := range tc.xs {
			work := append([]float64(nil), tc.xs...)
			got, want := Select(work, k), sortedAt(tc.xs, k)
			if !sameOrderStat(got, want) {
				t.Errorf("%s: Select(k=%d) = %v, sort gives %v", tc.name, k, got, want)
			}
		}
	}
}

// TestSelectSortFallback spends the partition budget at once, so the
// introselect fallback answers every rank.
func TestSelectSortFallback(t *testing.T) {
	xs := gapSpacings(200)
	for k := range xs {
		work := append([]float64(nil), xs...)
		if got, want := partitionSelect(work, k, 0, 0), sortedAt(xs, k); !sameOrderStat(got, want) {
			t.Errorf("k=%d: fallback gives %v, sort gives %v", k, got, want)
		}
	}
}

func TestSelectPanicsOutOfRange(t *testing.T) {
	for _, k := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Select(len 3, k=%d) did not panic", k)
				}
			}()
			Select([]float64{1, 2, 3}, k)
		}()
	}
}

// TestSelectLinearOnPresortedInput runs the inputs that make a naive
// partition quadratic at a size where quadratic work would outlast the
// test timeout: equal keys (Lomuto's worst case), sorted and reversed.
func TestSelectLinearOnPresortedInput(t *testing.T) {
	const n = 1 << 20
	for _, tc := range []struct {
		name     string
		at, want func(int) float64
	}{
		{"all equal", func(int) float64 { return 1.5 }, func(int) float64 { return 1.5 }},
		{"ascending", func(i int) float64 { return float64(i) }, func(k int) float64 { return float64(k) }},
		{"descending", func(i int) float64 { return float64(n - 1 - i) }, func(k int) float64 { return float64(k) }},
	} {
		for _, k := range []int{0, n / 3, n / 2, n - 1} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = tc.at(i)
			}
			if got, want := Select(xs, k), tc.want(k); !sameOrderStat(got, want) {
				t.Errorf("%s: Select(k=%d) = %v, want %v", tc.name, k, got, want)
			}
		}
	}
}

// float64sFromBits decodes little-endian 8-byte words, so the fuzzer
// reaches every bit pattern: NaN payloads, subnormals, signed zeros.
func float64sFromBits(b []byte) []float64 {
	xs := make([]float64, len(b)/8)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return xs
}

func bitsFromFloat64s(xs ...float64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// FuzzSelect holds Select to sort-then-index on arbitrary float64 bits
// and ranks.
func FuzzSelect(f *testing.F) {
	for _, tc := range selectCases() {
		f.Add(bitsFromFloat64s(tc.xs...), uint(len(tc.xs)/2))
	}
	f.Fuzz(func(t *testing.T, b []byte, k uint) {
		xs := float64sFromBits(b)
		if len(xs) == 0 {
			return
		}
		i := int(k % uint(len(xs)))
		work := append([]float64(nil), xs...)
		if got, want := Select(work, i), sortedAt(xs, i); !sameOrderStat(got, want) {
			t.Fatalf("Select(%v, %d) = %v, sort gives %v", xs, i, got, want)
		}
	})
}

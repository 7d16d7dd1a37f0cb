package stats

import (
	"math"
	"math/bits"
	"sort"
)

// Select returns the value sort.Float64s would leave at index k of xs:
// the k-th smallest element, NaNs ordering first. It permutes xs rather
// than sorting it, in expected O(n) time and O(n log n) at worst, and
// panics unless 0 <= k < len(xs), as indexing the sorted slice would. A
// tie between -0 and +0 may resolve to either zero.
func Select(xs []float64, k int) float64 {
	_ = xs[k]
	// NaNs sort first: gather them at the front so the partitioning
	// below can compare the rest with plain <.
	lo := 0
	for i, x := range xs {
		if math.IsNaN(x) {
			xs[i], xs[lo] = xs[lo], x
			lo++
		}
	}
	if k < lo {
		return xs[k]
	}
	// Introselect: a budget of partitions, after which whatever range
	// remains is sorted, so adversarial input cannot go quadratic.
	return partitionSelect(xs, k, lo, 2*bits.Len(uint(len(xs))))
}

// partitionSelect is Select on xs[lo:], which holds no NaN and contains
// index k, sorting the range still open once budget partitions are
// spent.
func partitionSelect(xs []float64, k, lo, budget int) float64 {
	hi := len(xs) - 1
	for ; lo < hi; budget-- {
		if budget == 0 {
			sort.Float64s(xs[lo : hi+1])
			break
		}
		p := medianOf3(xs[lo], xs[lo+(hi-lo)/2], xs[hi])
		// Hoare partition: both scans stop on keys equal to the pivot,
		// so a run of equal keys splits evenly rather than all landing
		// on one side.
		i, j := lo, hi
		for i <= j {
			for xs[i] < p {
				i++
			}
			for p < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// Now xs[lo..j] <= p <= xs[i..hi], and anything between is p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// medianOf3 returns the middle of three non-NaN values.
func medianOf3(a, b, c float64) float64 {
	if b < a {
		a, b = b, a
	}
	if c < b {
		b = c
		if b < a {
			b = a
		}
	}
	return b
}

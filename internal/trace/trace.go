// Package trace analyses time-resolved power recordings: the
// PowerMon-style sample streams produced by internal/powermon. It
// reconstructs the total-power timeline across supply rails, smooths it,
// and segments a run into phases of distinct power draw — the
// trace-level view a measurement study needs when a benchmark alternates
// between compute-heavy and memory-heavy sections.
package trace

import (
	"errors"
	"math"

	"archline/internal/powermon"
	"archline/internal/units"
)

// Point is one instantaneous total-power sample.
type Point struct {
	T units.Time
	P units.Power
}

// FromTrace sums a multi-rail recording into a single total-power
// timeline. All channels of a PowerMon recording share timestamps; the
// function tolerates ragged channel lengths by truncating to the
// shortest.
func FromTrace(tr *powermon.Trace) ([]Point, error) {
	if tr == nil || len(tr.Channels) == 0 {
		return nil, errors.New("trace: empty recording")
	}
	n := len(tr.Channels[0].Samples)
	for _, ch := range tr.Channels[1:] {
		if len(ch.Samples) < n {
			n = len(ch.Samples)
		}
	}
	if n == 0 {
		return nil, errors.New("trace: recording has no samples")
	}
	pts := make([]Point, n)
	for k := 0; k < n; k++ {
		var sum float64
		for _, ch := range tr.Channels {
			sum += ch.Samples[k].Power().Watts()
		}
		pts[k] = Point{T: tr.Channels[0].Samples[k].T, P: units.Power(sum)}
	}
	return pts, nil
}

// MovingAverage smooths the timeline with a centred window of the given
// odd width (even widths are rounded up).
func MovingAverage(pts []Point, window int) []Point {
	if window < 1 {
		window = 1
	}
	if window%2 == 0 {
		window++
	}
	half := window / 2
	out := make([]Point, len(pts))
	for k := range pts {
		lo, hi := k-half, k+half
		if lo < 0 {
			lo = 0
		}
		if hi >= len(pts) {
			hi = len(pts) - 1
		}
		sum := 0.0
		for j := lo; j <= hi; j++ {
			sum += pts[j].P.Watts()
		}
		out[k] = Point{T: pts[k].T, P: units.Power(sum / float64(hi-lo+1))}
	}
	return out
}

// Phase is a contiguous run of samples with approximately constant power.
type Phase struct {
	Start, End units.Time
	AvgPower   units.Power
	Samples    int
}

// DetectPhases segments the timeline by two-window change-point
// detection: at each index it compares the mean of the preceding minLen
// samples against the following minLen samples; boundaries are placed at
// local maxima of the relative difference where it exceeds relThreshold,
// with boundaries closer than minLen merged. minLen controls noise
// immunity; relThreshold is typically 0.05-0.15 for PowerMon-class noise.
func DetectPhases(pts []Point, minLen int, relThreshold float64) ([]Phase, error) {
	if len(pts) == 0 {
		return nil, errors.New("trace: no points")
	}
	if minLen < 1 {
		return nil, errors.New("trace: minLen must be >= 1")
	}
	if relThreshold <= 0 {
		return nil, errors.New("trace: threshold must be positive")
	}
	n := len(pts)
	m := minLen
	if 2*m > n {
		// Too short to split: one phase.
		return []Phase{summarise(pts, 0, n)}, nil
	}
	// Prefix sums for O(1) window means.
	prefix := make([]float64, n+1)
	for k, p := range pts {
		prefix[k+1] = prefix[k] + p.P.Watts()
	}
	mean := func(lo, hi int) float64 { return (prefix[hi] - prefix[lo]) / float64(hi-lo) }

	// Relative two-window difference at each candidate boundary.
	diff := make([]float64, n)
	for k := m; k+m <= n; k++ {
		before := mean(k-m, k)
		after := mean(k, k+m)
		base := math.Abs(before)
		if base == 0 {
			base = 1e-300
		}
		diff[k] = math.Abs(after-before) / base
	}
	// Local maxima above threshold, greedily separated by >= m.
	var cuts []int
	for k := m; k+m <= n; k++ {
		if diff[k] <= relThreshold {
			continue
		}
		isMax := true
		for j := max(m, k-m); j <= min(n-m, k+m); j++ {
			//archlint:ignore floatcmp exact tie-break keeps peak selection deterministic
			if diff[j] > diff[k] || (diff[j] == diff[k] && j < k) {
				isMax = j == k
				if !isMax {
					break
				}
			}
		}
		if isMax && (len(cuts) == 0 || k-cuts[len(cuts)-1] >= m) {
			cuts = append(cuts, k)
		}
	}
	var phases []Phase
	start := 0
	for _, c := range cuts {
		phases = append(phases, summarise(pts, start, c))
		start = c
	}
	phases = append(phases, summarise(pts, start, n))
	return phases, nil
}

// summarise builds a Phase over pts[lo:hi].
func summarise(pts []Point, lo, hi int) Phase {
	sum := 0.0
	for _, p := range pts[lo:hi] {
		sum += p.P.Watts()
	}
	return Phase{
		Start:    pts[lo].T,
		End:      pts[hi-1].T,
		AvgPower: units.Power(sum / float64(hi-lo)),
		Samples:  hi - lo,
	}
}

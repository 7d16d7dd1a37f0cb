package powermon

import (
	"fmt"
	"math"

	"archline/internal/stats"
	"archline/internal/units"
)

// Trace sanitization: the defensive pass a careful lab applies to raw
// PowerMon dumps before trusting them. Real channels glitch — samples
// drop in bursts when the USB link stalls, single readings spike when a
// shunt amplifier rails, and an ADC occasionally latches and repeats
// one code for a stretch. Sanitize detects each pathology, repairs what
// interpolation can repair, and grades the trace so downstream fitting
// can weigh (or reject) it instead of silently averaging garbage.

// Sanitization thresholds. They are deliberately loose: a clean trace
// (Gaussian sensor noise plus the simulator's 1% utilisation wiggle)
// must pass through untouched.
const (
	// gapFactor: a timestamp step beyond this multiple of the median
	// sampling interval is a dropped-sample gap.
	gapFactor = 1.75
	// spikeK: samples whose power deviates from the channel median by
	// more than spikeK robust standard deviations (MAD-scaled) are
	// sensor spikes.
	spikeK = 8
	// stuckRun: this many consecutive bit-identical readings mark a
	// latched channel. Noisy samples never repeat exactly; genuinely
	// constant (noiseless) traces are exempted below.
	stuckRun = 4
	// madConsistency scales a MAD to a Gaussian-consistent standard
	// deviation.
	madConsistency = 1.4826
)

// Grade buckets a trace's overall measurement quality.
type Grade int

// Grades, ordered from clean to contaminated.
const (
	// GradeA: pristine or near-pristine; repairs touched < 1% of samples.
	GradeA Grade = iota
	// GradeB: degraded but usable; repairs touched < 10% of samples.
	GradeB
	// GradeC: heavily contaminated; the trace should be re-measured or
	// excluded from aggregation.
	GradeC
)

// String names the grade.
func (g Grade) String() string {
	switch g {
	case GradeA:
		return "A"
	case GradeB:
		return "B"
	default:
		return "C"
	}
}

// Quality summarizes what sanitization found and repaired in one trace.
// The zero value reads as a pristine, unsanitized trace.
type Quality struct {
	// GapsFilled counts samples synthesized into dropped-sample gaps.
	GapsFilled int
	// SpikesRemoved counts samples rejected as sensor spikes.
	SpikesRemoved int
	// StuckRepaired counts samples rewritten inside latched runs.
	StuckRepaired int
	// RepairedFrac is the fraction of post-repair samples that were
	// synthesized or rewritten.
	RepairedFrac float64
	// Grade buckets the overall quality.
	Grade Grade
}

// Repairs is the total number of repaired samples.
func (q Quality) Repairs() int { return q.GapsFilled + q.SpikesRemoved + q.StuckRepaired }

// Merge folds another quality report into this one, keeping the worst
// grade and the larger repaired fraction.
func (q Quality) Merge(o Quality) Quality {
	q.GapsFilled += o.GapsFilled
	q.SpikesRemoved += o.SpikesRemoved
	q.StuckRepaired += o.StuckRepaired
	if o.RepairedFrac > q.RepairedFrac {
		q.RepairedFrac = o.RepairedFrac
	}
	if o.Grade > q.Grade {
		q.Grade = o.Grade
	}
	return q
}

// String renders the quality flags compactly, e.g. "B (gaps 12, spikes 2)".
func (q Quality) String() string {
	return fmt.Sprintf("%s (gaps %d, spikes %d, stuck %d, repaired %.1f%%)",
		q.Grade, q.GapsFilled, q.SpikesRemoved, q.StuckRepaired, 100*q.RepairedFrac)
}

// gradeFor buckets a repaired fraction.
func gradeFor(repairedFrac float64) Grade {
	switch {
	case repairedFrac < 0.01:
		return GradeA
	case repairedFrac < 0.10:
		return GradeB
	default:
		return GradeC
	}
}

// Sanitize repairs the trace in place — spike rejection, latched-run
// repair, then gap interpolation, per channel — and returns the quality
// report. A clean trace passes through byte-identical with GradeA.
func (t *Trace) Sanitize() Quality {
	var q Quality
	total := 0
	for i := range t.Channels {
		ch := &t.Channels[i]
		// Latched runs first: a latch far from the median would otherwise
		// be misread as a burst of spikes.
		q.StuckRepaired += unstick(ch.Samples)
		q.SpikesRemoved += despike(ch.Samples)
		filled, samples := fillGaps(ch.Samples)
		q.GapsFilled += filled
		ch.Samples = samples
		total += len(ch.Samples)
	}
	if total > 0 {
		q.RepairedFrac = float64(q.Repairs()) / float64(total)
	}
	q.Grade = gradeFor(q.RepairedFrac)
	return q
}

// medianMAD returns the upper median of xs, the element at index n/2
// once sorted (not stats.Median's interpolation between the middle
// two), and the median absolute deviation about it, taken the same way.
func medianMAD(xs []float64) (med, mad float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	med = stats.Select(s, len(s)/2)
	for i, x := range s {
		s[i] = math.Abs(x - med)
	}
	return med, stats.Select(s, len(s)/2)
}

// despike replaces samples whose instantaneous power sits beyond
// spikeK robust standard deviations from the channel median with the
// interpolation of their neighbours, returning the number replaced.
func despike(ss []Sample) int {
	if len(ss) < 3 {
		return 0
	}
	ps := make([]float64, len(ss))
	for i, s := range ss {
		ps[i] = s.Power().Watts()
	}
	med, mad := medianMAD(ps)
	if mad <= 0 {
		return 0 // constant trace: nothing can be a spike
	}
	limit := spikeK * madConsistency * mad
	n := 0
	for i := range ss {
		if math.Abs(ps[i]-med) <= limit {
			continue
		}
		// Replace the reading with its clean-neighbour interpolation
		// (falling back to the channel median at the edges).
		target := med
		lo, hi := i-1, i+1
		for lo >= 0 && math.Abs(ps[lo]-med) > limit {
			lo--
		}
		for hi < len(ss) && math.Abs(ps[hi]-med) > limit {
			hi++
		}
		switch {
		case lo >= 0 && hi < len(ss):
			frac := float64(i-lo) / float64(hi-lo)
			target = ps[lo] + frac*(ps[hi]-ps[lo])
		case lo >= 0:
			target = ps[lo]
		case hi < len(ss):
			target = ps[hi]
		}
		if ss[i].V > 0 {
			ss[i].I = target / ss[i].V
		}
		n++
	}
	return n
}

// unstick finds runs of >= stuckRun bit-identical (V, I) readings — a
// latched ADC — and rewrites their interior by linear interpolation
// between the bracketing healthy samples. Runs covering half the trace
// or more are left alone: that is a genuinely constant signal (e.g. a
// noiseless recording), not a latch.
func unstick(ss []Sample) int {
	n := 0
	i := 0
	for i < len(ss) {
		j := i + 1
		//archlint:ignore floatcmp a latched ADC repeats bit-identical readings; approximate equality would misclassify a smooth signal as stuck
		for j < len(ss) && ss[j].I == ss[i].I && ss[j].V == ss[i].V {
			j++
		}
		run := j - i
		if run >= stuckRun && run <= len(ss)/2 {
			// Interpolate power across the latch from the bracketing
			// samples (clamping at the trace edges).
			loP, hiP := 0.0, 0.0
			if i > 0 {
				loP = ss[i-1].Power().Watts()
			} else if j < len(ss) {
				loP = ss[j].Power().Watts()
			}
			if j < len(ss) {
				hiP = ss[j].Power().Watts()
			} else {
				hiP = loP
			}
			for k := i; k < j; k++ {
				frac := float64(k-i+1) / float64(run+1)
				p := loP + frac*(hiP-loP)
				if ss[k].V > 0 {
					ss[k].I = p / ss[k].V
				}
				n++
			}
		}
		i = j
	}
	return n
}

// fillGaps detects dropped-sample gaps by timestamp spacing and inserts
// linearly interpolated samples so the mean-of-samples average power is
// taken over a uniform grid again. It returns the number of samples
// synthesized and the repaired series.
func fillGaps(ss []Sample) (int, []Sample) {
	if len(ss) < 3 {
		return 0, ss
	}
	dts := make([]float64, 0, len(ss)-1)
	for i := 1; i < len(ss); i++ {
		dts = append(dts, (ss[i].T - ss[i-1].T).Seconds())
	}
	dtMed := stats.Select(dts, len(dts)/2)
	if dtMed <= 0 {
		return 0, ss
	}
	out := make([]Sample, 0, len(ss))
	filled := 0
	out = append(out, ss[0])
	for i := 1; i < len(ss); i++ {
		gap := (ss[i].T - ss[i-1].T).Seconds()
		if gap > gapFactor*dtMed {
			missing := int(math.Round(gap/dtMed)) - 1
			for k := 1; k <= missing; k++ {
				frac := float64(k) / float64(missing+1)
				out = append(out, Sample{
					T: ss[i-1].T + units.Time(frac*gap),
					V: ss[i-1].V + frac*(ss[i].V-ss[i-1].V),
					I: ss[i-1].I + frac*(ss[i].I-ss[i-1].I),
				})
				filled++
			}
		}
		out = append(out, ss[i])
	}
	return filled, out
}

// Package faults is a deterministic, seeded fault-injection layer for
// the measurement stack. The paper's fitted constants come from real
// lab instrumentation, and real power instrumentation is ugly: PowerMon
// channels glitch, sample buffers drop in bursts, ADCs latch, shunt
// calibrations drift, platforms thermally throttle mid-run, and the
// meter link occasionally disconnects outright. The simulated substrate
// models only well-behaved Gaussian noise, so this package layers the
// pathologies on top — composable, probability-scheduled, and entirely
// driven by stats.Stream so the same seed always produces the identical
// fault schedule.
//
// The injector wraps the two chokepoints of the measurement stack:
//
//   - powermon recording (Injector.Record): transient disconnects
//     surface as powermon.ErrDisconnect, and successful recordings come
//     back corrupted with dropped sample windows, sensor spikes,
//     latched channels, and calibration-gain drift;
//   - simulated execution (Injector.ThrottleEvent): a thermal-throttle
//     event cuts the platform's sustained dynamic power mid-run and
//     stretches the wall time to conserve the work done.
//
// Consumers harden themselves against the injected faults: powermon
// sanitizes traces, microbench retries transients and aggregates
// repeat measurements robustly, fit falls back to a robust loss, and
// the archlined daemon sheds load behind a circuit breaker.
package faults

import (
	"fmt"
	"sync"

	"archline/internal/powermon"
	"archline/internal/stats"
	"archline/internal/units"
)

// Profile is one fault environment: per-pathology probabilities and
// magnitudes. The zero value injects nothing.
type Profile struct {
	// Name identifies the profile in flags and logs.
	Name string

	// DropRate is the expected fraction of samples lost to gap bursts.
	DropRate float64
	// DropWindow is the number of consecutive samples lost per burst.
	DropWindow int

	// SpikeRate is the per-sample probability of a sensor spike.
	SpikeRate float64
	// SpikeMag is the multiplicative magnitude of a spike on the
	// sampled current.
	SpikeMag float64

	// StuckProb is the per-channel-trace probability that the ADC
	// latches for a stretch of the recording.
	StuckProb float64
	// StuckFrac is the fraction of the trace a latch lasts.
	StuckFrac float64
	// StuckLow and StuckHigh bound the latched reading as a multiple of
	// the reading at latch onset.
	StuckLow, StuckHigh float64

	// GainDrift bounds the slow multiplicative calibration drift each
	// recording sees relative to the last shunt calibration; a
	// recording's gain error is drawn uniformly from [-GainDrift,
	// +GainDrift].
	GainDrift float64

	// ThrottleProb is the per-run probability of a thermal-throttle
	// event that cuts the sustained dynamic power mid-run.
	ThrottleProb float64
	// ThrottleFactor is the throttled speed (and dynamic-power)
	// fraction in (0, 1].
	ThrottleFactor float64
	// ThrottleWorkFrac is the fraction of the run's work executed while
	// throttled.
	ThrottleWorkFrac float64

	// DisconnectProb is the per-label probability that the meter link
	// drops when a recording is first attempted.
	DisconnectProb float64
	// DisconnectBurst is how many consecutive attempts fail per
	// disconnect episode before the link recovers.
	DisconnectBurst int
}

// Enabled reports whether the profile injects anything at all.
func (p Profile) Enabled() bool {
	return p.DropRate > 0 || p.SpikeRate > 0 || p.StuckProb > 0 ||
		p.GainDrift > 0 || p.ThrottleProb > 0 || p.DisconnectProb > 0
}

// None is the empty profile: no faults.
func None() Profile { return Profile{Name: "none"} }

// Paper is the paper-plausible profile: the pathology rates a careful
// lab actually fights — at most 2% dropped samples, 0.5% spikes,
// roughly one thermal-throttle event per suite run, occasional latched
// channels, sub-percent calibration drift, and rare link drops. The
// robust measure→fit pipeline must recover Table I constants within 5%
// under this profile.
func Paper() Profile {
	return Profile{
		Name:             "paper",
		DropRate:         0.02,
		DropWindow:       24,
		SpikeRate:        0.005,
		SpikeMag:         12,
		StuckProb:        0.04,
		StuckFrac:        0.08,
		StuckLow:         0.3,
		StuckHigh:        1.4,
		GainDrift:        0.004,
		ThrottleProb:     0.02, // ~one event across a ~60-kernel suite
		ThrottleFactor:   0.55,
		ThrottleWorkFrac: 0.5,
		DisconnectProb:   0.02,
		DisconnectBurst:  2,
	}
}

// Harsh is a stress profile well beyond anything the paper's lab saw:
// it exists to exercise degradation paths, not to be survived within
// tight tolerances.
func Harsh() Profile {
	return Profile{
		Name:             "harsh",
		DropRate:         0.10,
		DropWindow:       64,
		SpikeRate:        0.03,
		SpikeMag:         20,
		StuckProb:        0.25,
		StuckFrac:        0.20,
		StuckLow:         0.1,
		StuckHigh:        2.0,
		GainDrift:        0.02,
		ThrottleProb:     0.15,
		ThrottleFactor:   0.4,
		ThrottleWorkFrac: 0.6,
		DisconnectProb:   0.10,
		DisconnectBurst:  3,
	}
}

// ByName resolves a built-in profile.
func ByName(name string) (Profile, error) {
	switch name {
	case "", "none":
		return None(), nil
	case "paper":
		return Paper(), nil
	case "harsh":
		return Harsh(), nil
	default:
		return Profile{}, fmt.Errorf("faults: unknown profile %q (want one of none, paper, harsh)", name)
	}
}

// Injector schedules and applies one profile's faults. All randomness
// derives from (seed, label) stats.Streams, so the schedule is a pure
// function of the seed and the labels measured: same seed, same labels
// ⇒ identical faults, regardless of evaluation order. The only mutable
// state is the per-label disconnect countdown, which is itself
// label-deterministic; a mutex makes concurrent use safe.
type Injector struct {
	prof Profile
	seed uint64

	mu         sync.Mutex
	disconnect map[string]int // label -> remaining failures in the episode
}

// New builds an injector for the profile.
func New(prof Profile, seed uint64) *Injector {
	return &Injector{prof: prof, seed: seed, disconnect: map[string]int{}}
}

// stream derives the deterministic stream for one fault kind and label.
func (in *Injector) stream(kind, label string) *stats.Stream {
	return stats.NewStream(in.seed^0xfa117, kind+"/"+label)
}

// ThrottleWindow describes one thermal-throttle event inside a run.
type ThrottleWindow struct {
	// Start and Dur delimit the throttled stretch of the (stretched)
	// run, in seconds from run start.
	Start, Dur float64
	// Factor is the dynamic-power (and clock) fraction during the
	// window.
	Factor float64
	// Total is the stretched total wall time of the run.
	Total float64
}

// ThrottleEvent decides whether the labelled run hits a thermal
// throttle. The event conserves work: a fraction of the run executes at
// Factor speed, so the wall time stretches while the dynamic power
// during the window drops by the same factor.
func (in *Injector) ThrottleEvent(label string, trueTime float64) (ThrottleWindow, bool) {
	if in == nil || in.prof.ThrottleProb <= 0 || trueTime <= 0 {
		return ThrottleWindow{}, false
	}
	s := in.stream("throttle", label)
	if s.Float64() >= in.prof.ThrottleProb {
		return ThrottleWindow{}, false
	}
	f := in.prof.ThrottleFactor
	if f <= 0 || f > 1 {
		f = 0.5
	}
	g := in.prof.ThrottleWorkFrac
	if g <= 0 || g >= 1 {
		g = 0.5
	}
	dur := g * trueTime / f              // wall time of the throttled stretch
	total := (1-g)*trueTime + dur        // stretched run length
	start := s.Float64() * (total - dur) // window placement
	return ThrottleWindow{Start: start, Dur: dur, Factor: f, Total: total}, true
}

// Record performs one metered recording under the fault schedule: a
// transient powermon.ErrDisconnect while a disconnect episode is open,
// otherwise the meter's trace corrupted per the profile. rng carries
// the meter's own measurement noise exactly as powermon.Meter.Record
// takes it.
func (in *Injector) Record(m *powermon.Meter, sig powermon.Signal, d units.Time,
	rng *stats.Stream, label string) (*powermon.Trace, error) {
	if in == nil || !in.prof.Enabled() {
		return m.Record(sig, d, rng)
	}
	if err := in.checkDisconnect(label); err != nil {
		return nil, err
	}
	tr, err := m.Record(sig, d, rng)
	if err != nil {
		return nil, err
	}
	in.corrupt(tr, label)
	return tr, nil
}

// checkDisconnect opens (or continues) the label's disconnect episode.
func (in *Injector) checkDisconnect(label string) error {
	if in.prof.DisconnectProb <= 0 {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	remaining, open := in.disconnect[label]
	if !open {
		// First attempt for this label: roll for an episode.
		remaining = 0
		if in.stream("disconnect", label).Float64() < in.prof.DisconnectProb {
			remaining = in.prof.DisconnectBurst
			if remaining < 1 {
				remaining = 1
			}
		}
	}
	if remaining > 0 {
		in.disconnect[label] = remaining - 1
		return fmt.Errorf("faults: %q: %w", label, powermon.ErrDisconnect)
	}
	in.disconnect[label] = 0
	return nil
}

// corrupt applies the profile's trace pathologies channel by channel.
func (in *Injector) corrupt(tr *powermon.Trace, label string) {
	for c := range tr.Channels {
		ch := &tr.Channels[c]
		s := in.stream("corrupt", label+"/"+ch.Channel)
		in.drift(ch, s)
		in.spike(ch, s)
		in.stick(ch, s)
		in.drop(ch, s)
	}
}

// drift applies the recording's calibration-gain drift: the slow shunt
// drift since the last calibration, sampled once per recording.
func (in *Injector) drift(ch *powermon.ChannelTrace, s *stats.Stream) {
	if in.prof.GainDrift <= 0 {
		return
	}
	g := 1 + in.prof.GainDrift*(2*s.Float64()-1)
	for i := range ch.Samples {
		ch.Samples[i].I *= g
	}
}

// spike rails individual readings.
func (in *Injector) spike(ch *powermon.ChannelTrace, s *stats.Stream) {
	if in.prof.SpikeRate <= 0 {
		return
	}
	mag := in.prof.SpikeMag
	if mag <= 1 {
		mag = 10
	}
	for i := range ch.Samples {
		if s.Float64() < in.prof.SpikeRate {
			ch.Samples[i].I *= mag
		}
	}
}

// stick latches the channel for a stretch of the recording.
func (in *Injector) stick(ch *powermon.ChannelTrace, s *stats.Stream) {
	n := len(ch.Samples)
	if in.prof.StuckProb <= 0 || n < 8 || s.Float64() >= in.prof.StuckProb {
		return
	}
	frac := in.prof.StuckFrac
	if frac <= 0 || frac > 0.45 {
		frac = 0.1
	}
	run := int(frac * float64(n))
	if run < 4 {
		run = 4
	}
	start := s.Intn(n - run)
	lo, hi := in.prof.StuckLow, in.prof.StuckHigh
	if lo <= 0 || hi <= lo {
		lo, hi = 0.3, 1.4
	}
	level := ch.Samples[start].I * (lo + (hi-lo)*s.Float64())
	v := ch.Samples[start].V
	for i := start; i < start+run; i++ {
		ch.Samples[i].I = level
		ch.Samples[i].V = v
	}
}

// drop removes bursts of samples, the way a stalled meter link loses
// whole buffer flushes. Timestamps of the survivors are untouched, so
// the gaps stay visible to sanitization.
func (in *Injector) drop(ch *powermon.ChannelTrace, s *stats.Stream) {
	n := len(ch.Samples)
	win := in.prof.DropWindow
	if in.prof.DropRate <= 0 || win < 1 || n <= 2*win {
		return
	}
	// Each trigger eats a whole window, so the per-sample trigger
	// probability is the target rate divided by the window length.
	burstProb := in.prof.DropRate / float64(win)
	kept := ch.Samples[:0]
	i := 0
	for i < n {
		if i > 0 && i+win < n && s.Float64() < burstProb {
			i += win // burst lost
			continue
		}
		kept = append(kept, ch.Samples[i])
		i++
	}
	ch.Samples = kept
}

// Package powermon simulates the paper's power-measurement
// infrastructure: PowerMon 2, a fine-grained DC power monitor that sits
// between a device and its supply sampling voltage and current at 1024 Hz
// per channel (up to 3072 Hz aggregate over 8 channels), and the custom
// PCIe interposer that measures the power a GPU draws through the
// motherboard slot.
//
// The simulation reproduces the measurement *computation* of section IV
// exactly: instantaneous power is the product of sampled current and
// voltage; average power is the mean of instantaneous power over samples,
// summed across supply rails; total energy is average power times
// execution time. It also reproduces the measurement *artefacts* that
// make fitting non-trivial: finite sampling rate, aggregate-bandwidth
// sharing across channels, per-channel calibration error, and additive
// sensor noise.
package powermon

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"archline/internal/stats"
	"archline/internal/units"
)

// Signal is the ground-truth instantaneous power draw of a device as a
// function of time since the start of the run. The hardware simulator
// provides one per experiment.
type Signal func(t units.Time) units.Power

// Constant returns a flat power signal.
func Constant(p units.Power) Signal {
	return func(units.Time) units.Power { return p }
}

// Channel configures one measurement channel: one DC rail intercepted by
// PowerMon 2 or by the PCIe interposer.
type Channel struct {
	Name    string  // e.g. "12V-8pin", "PCIe-slot"
	Voltage float64 // nominal rail voltage (V)
	Share   float64 // fraction of device power drawn through this rail
	// CalibGain is the channel's multiplicative calibration error
	// (1.0 = perfect). PowerMon's shunt calibration is good to ~1%.
	CalibGain float64
	// NoiseSD is the standard deviation of multiplicative sensor noise
	// applied to each current sample.
	NoiseSD float64
}

// Meter is a configured measurement setup.
type Meter struct {
	Channels []Channel
	// SampleRate is the per-channel sampling frequency in Hz.
	// PowerMon 2 samples at 1024 Hz per channel.
	SampleRate float64
	// MaxAggregate caps the total samples/s across channels (PowerMon 2:
	// 3072 Hz over up to 8 channels). Zero means uncapped.
	MaxAggregate float64
}

// Validate checks the meter configuration: shares must sum to 1 so the
// rails jointly carry the device's power.
func (m *Meter) Validate() error {
	if len(m.Channels) == 0 {
		return ErrNoChannels
	}
	if len(m.Channels) > 8 {
		return ErrTooManyChannels
	}
	if m.SampleRate <= 0 {
		return ErrBadSampleRate
	}
	total := 0.0
	for _, c := range m.Channels {
		if c.Voltage <= 0 {
			return fmt.Errorf("channel %q voltage must be positive: %w", c.Name, ErrBadChannel)
		}
		if c.Share < 0 {
			return fmt.Errorf("channel %q share must be non-negative: %w", c.Name, ErrBadChannel)
		}
		if c.CalibGain <= 0 {
			return fmt.Errorf("channel %q calibration gain must be positive: %w", c.Name, ErrBadChannel)
		}
		total += c.Share
	}
	if total < 0.999 || total > 1.001 {
		return fmt.Errorf("channel shares sum to %v: %w", total, ErrBadShareSum)
	}
	return nil
}

// EffectiveRate is the realized per-channel sampling rate after the
// aggregate cap is shared across channels.
func (m *Meter) EffectiveRate() float64 {
	r := m.SampleRate
	if m.MaxAggregate > 0 && float64(len(m.Channels))*r > m.MaxAggregate {
		r = m.MaxAggregate / float64(len(m.Channels))
	}
	return r
}

// Sample is one time-stamped voltage/current measurement on one channel.
type Sample struct {
	T units.Time // time since run start
	V float64    // volts
	I float64    // amperes
}

// Power is the instantaneous power of the sample.
func (s Sample) Power() units.Power { return units.Power(s.V * s.I) }

// ChannelTrace is the sample series for one channel.
type ChannelTrace struct {
	Channel string
	Samples []Sample
}

// AvgPower is the mean instantaneous power over the samples, the paper's
// per-source average ("assuming uniform samples, we compute the average
// power as the average of the instantaneous power over all samples").
func (ct *ChannelTrace) AvgPower() units.Power {
	if len(ct.Samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range ct.Samples {
		sum += s.Power().Watts()
	}
	return units.Power(sum / float64(len(ct.Samples)))
}

// Trace is a complete multi-rail recording of one run.
type Trace struct {
	Channels []ChannelTrace
	Duration units.Time
}

// AvgPower sums the per-channel average powers, the paper's treatment of
// multi-source devices ("we sum the average powers to get total power").
func (t *Trace) AvgPower() units.Power {
	var sum units.Power
	for i := range t.Channels {
		sum += t.Channels[i].AvgPower()
	}
	return sum
}

// Energy is average power times execution time, as in section IV.
func (t *Trace) Energy() units.Energy { return t.AvgPower().For(t.Duration) }

// SampleCount returns the total number of samples across channels.
func (t *Trace) SampleCount() int {
	n := 0
	for i := range t.Channels {
		n += len(t.Channels[i].Samples)
	}
	return n
}

// maxTraceSamples bounds one channel's recording. The longest built-in
// suite trace is 5,759 samples per channel (pandaboard's sweep-dp-255
// at the 256-point sweep maximum), so the bound leaves 45x headroom
// while capping a channel's samples at 6 MiB.
const maxTraceSamples = 1 << 18

// Record measures a run: it samples the signal on every channel at the
// effective rate for the given duration. Each channel sees its share of
// the device power at its nominal voltage, perturbed by calibration gain
// and per-sample noise. rng may be nil for noiseless recording. A run
// that would take more than maxTraceSamples per channel fails with
// ErrTraceTooLong.
func (m *Meter) Record(sig Signal, duration units.Time, rng *stats.Stream) (*Trace, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if duration <= 0 {
		return nil, ErrBadDuration
	}
	if sig == nil {
		return nil, ErrNilSignal
	}
	// Bound the sample count while it is still a float: a platform's
	// rates can stretch a run without limit, and int() of a huge or
	// infinite count would wrap.
	fn := duration.Seconds() * m.EffectiveRate()
	if !(fn <= maxTraceSamples) {
		return nil, ErrTraceTooLong
	}
	n := int(fn)
	if n < 1 {
		n = 1 // a very short run still yields one sample per channel
	}
	dt := duration.Seconds() / float64(n)
	tr := &Trace{Duration: duration}
	for _, ch := range m.Channels {
		ctr := ChannelTrace{Channel: ch.Name, Samples: make([]Sample, n)}
		for k := 0; k < n; k++ {
			// Sample mid-interval, as an integrating ADC effectively does.
			ts := units.Time((float64(k) + 0.5) * dt)
			p := sig(ts).Watts() * ch.Share
			i := p / ch.Voltage
			v := ch.Voltage
			if rng != nil {
				i *= ch.CalibGain * (1 + ch.NoiseSD*rng.NormFloat64())
				v *= 1 + 0.001*rng.NormFloat64() // small supply ripple
			}
			ctr.Samples[k] = Sample{T: ts, V: v, I: i}
		}
		tr.Channels = append(tr.Channels, ctr)
	}
	return tr, nil
}

// WriteCSV streams the trace as time-stamped rows:
// channel,t_seconds,volts,amps.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"channel", "t", "v", "i"}); err != nil {
		return err
	}
	for _, ch := range t.Channels {
		for _, s := range ch.Samples {
			rec := []string{
				ch.Channel,
				strconv.FormatFloat(s.T.Seconds(), 'g', -1, 64),
				strconv.FormatFloat(s.V, 'g', -1, 64),
				strconv.FormatFloat(s.I, 'g', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

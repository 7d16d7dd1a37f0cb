package powermon

import (
	"errors"
	"fmt"
)

// Measurement failures split into two classes, the way a lab treats
// them: transient faults (a glitched channel read, a dropped meter
// link) clear on retry, while permanent errors (a misconfigured meter,
// a nonsensical recording request) never will. Retry logic keys on the
// class via errors.Is(err, ErrTransient) — every transient sentinel
// wraps the marker, so callers never match on message text.
var (
	// ErrTransient marks a fault a retry may clear. It is a wrapping
	// marker: match with errors.Is, never return it bare.
	ErrTransient = errors.New("transient measurement fault")

	// ErrPermanent marks an error that no retry can clear. Like
	// ErrTransient it is a marker wrapped by the concrete sentinels.
	ErrPermanent = errors.New("permanent measurement error")
)

// ErrDisconnect reports the meter link dropping mid-recording (USB
// hiccup, buffer overrun): the transient condition the paper's lab
// notebook records as "re-run the measurement".
var ErrDisconnect = fmt.Errorf("powermon: meter disconnected mid-record: %w", ErrTransient)

// Permanent sentinels: meter and request misconfiguration.
var (
	ErrNoChannels      = fmt.Errorf("powermon: meter needs at least one channel: %w", ErrPermanent)
	ErrTooManyChannels = fmt.Errorf("powermon: PowerMon 2 supports at most 8 channels: %w", ErrPermanent)
	ErrBadSampleRate   = fmt.Errorf("powermon: sample rate must be positive: %w", ErrPermanent)
	ErrBadChannel      = fmt.Errorf("powermon: bad channel configuration: %w", ErrPermanent)
	ErrBadShareSum     = fmt.Errorf("powermon: channel shares must sum to 1: %w", ErrPermanent)
	ErrBadDuration     = fmt.Errorf("powermon: duration must be positive: %w", ErrPermanent)
	ErrNilSignal       = fmt.Errorf("powermon: nil signal: %w", ErrPermanent)
	// ErrTraceTooLong reports a run that would record more than
	// maxTraceSamples per channel, or a non-finite sample count.
	ErrTraceTooLong = fmt.Errorf("powermon: recording exceeds %d samples per channel: %w",
		maxTraceSamples, ErrPermanent)
)

// IsTransient reports whether err is a fault a retry may clear.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

package server

import (
	"math"
	"strconv"
	"sync"

	"archline/internal/model"
)

// The stream hot path hand-rolls its chunk lines instead of reflecting
// through encoding/json: the chunk schema is fixed, so an append-based
// encoder writing into a pooled buffer makes a flushed chunk cost zero
// allocations. The byte output is identical to what json.Encoder
// produces for the equivalent streamChunk value — same float
// formatting (appendJSONFloat, floatfmt.go), same field order, same
// omission rules, same drop-the-whole-line behaviour on non-finite
// values — which the encoder tests and the stream golden test pin, so
// clients cannot tell the encoders apart.

// pointBufs recycles per-chunk evaluation buffers. Capacity is
// maxChunkPoints, the largest chunk a request may ask for, so
// Kernel.AppendLogSpace never grows one.
var pointBufs = sync.Pool{
	New: func() any {
		b := make([]model.Point, 0, maxChunkPoints)
		return &b
	},
}

// lineBufs recycles NDJSON chunk line buffers. A line may outgrow the
// initial capacity (a maxChunkPoints chunk runs about 835 KB); callers
// put the grown slice back so the pool converges on the working size.
var lineBufs = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1<<14)
		return &b
	},
}

// appendStreamPoint appends one point object in the rooflinePoint wire
// schema. The omission rules replicate the struct tags byte for byte:
// uncapped_flops_per_sec is omitempty (dropped when zero) and throttle
// is the nf-boxed pointer (dropped when non-finite, kept when finite —
// including zero). The regime letter is appended unescaped, which is
// exact because Regime.Letter returns single ASCII letters that JSON
// string encoding passes through verbatim.
func appendStreamPoint(dst []byte, pt model.Point) ([]byte, bool) {
	var ok bool
	dst = append(dst, `{"intensity":`...)
	if dst, ok = appendJSONFloat(dst, pt.Intensity); !ok {
		return dst, false
	}
	dst = append(dst, `,"regime":"`...)
	dst = append(dst, pt.Regime.Letter()...)
	dst = append(dst, `","flops_per_sec":`...)
	if dst, ok = appendJSONFloat(dst, pt.FlopsPerSec); !ok {
		return dst, false
	}
	if pt.UncappedFlopsPerSec != 0 {
		dst = append(dst, `,"uncapped_flops_per_sec":`...)
		if dst, ok = appendJSONFloat(dst, pt.UncappedFlopsPerSec); !ok {
			return dst, false
		}
	}
	dst = append(dst, `,"flops_per_joule":`...)
	if dst, ok = appendJSONFloat(dst, pt.FlopsPerJoule); !ok {
		return dst, false
	}
	dst = append(dst, `,"avg_power_w":`...)
	if dst, ok = appendJSONFloat(dst, pt.AvgPowerW); !ok {
		return dst, false
	}
	if !math.IsNaN(pt.Throttle) && !math.IsInf(pt.Throttle, 0) {
		dst = append(dst, `,"throttle":`...)
		dst, _ = appendJSONFloat(dst, pt.Throttle)
	}
	return append(dst, '}'), true
}

// appendStreamChunk appends one full NDJSON chunk line (newline
// included) for chunk seq. A false report means some required value was
// non-finite: json.Encoder would have failed the whole Encode and
// written nothing, so the caller drops the line — the chunk still
// counts toward the trailer totals, exactly as the silently ignored
// Encode error used to behave.
func appendStreamChunk(dst []byte, seq int, pts []model.Point) ([]byte, bool) {
	var ok bool
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendInt(dst, int64(seq), 10)
	dst = append(dst, `,"points":[`...)
	for i := range pts {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, ok = appendStreamPoint(dst, pts[i]); !ok {
			return dst, false
		}
	}
	return append(dst, ']', '}', '\n'), true
}

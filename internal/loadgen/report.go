package loadgen

import (
	"fmt"
	"io"
	"sort"
	"time"

	"archline/internal/stats"
)

// Report is one load run's outcome. The field set is the -json schema:
// scripts parse it, so fields are only ever added, never renamed.
type Report struct {
	DurationS       float64 `json:"duration_s"`
	Requests        int64   `json:"requests"`
	RPS             float64 `json:"rps"`
	OK              int64   `json:"ok"`
	ClientErrors    int64   `json:"client_errors"`
	ServerErrors    int64   `json:"server_errors"`
	Shed            int64   `json:"shed"`
	JobsShed        int64   `json:"jobs_shed"`
	BreakerOpen     int64   `json:"breaker_open"`
	Draining        int64   `json:"draining"`
	TransportErrors int64   `json:"transport_errors"`
	// Canceled counts requests aborted in flight by the run's own
	// deadline — a harness artifact, never a budget violation.
	Canceled int64 `json:"canceled"`
	// Skipped counts open-loop dispatches refused because max(64,
	// 4*Rate) requests were already in flight (client saturation, not a
	// server outcome).
	Skipped int64 `json:"skipped"`

	// Latency quantiles over successful responses, milliseconds.
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`

	// Ops is the per-operation breakdown, name-sorted.
	Ops []OpReport `json:"ops"`
}

// OpReport is one operation's slice of the run.
type OpReport struct {
	Op       string  `json:"op"`
	Requests int64   `json:"requests"`
	OK       int64   `json:"ok"`
	Errors   int64   `json:"errors"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
	P999Ms   float64 `json:"p999_ms"`
}

// collect drains the results channel until it closes and aggregates the
// report.
func collect(results <-chan result, start time.Time) Report {
	var rep Report
	lat := []float64{}
	perOp := map[string]*OpReport{}
	perOpLat := map[string][]float64{}
	for r := range results {
		rep.Requests++
		op := perOp[r.op]
		if op == nil {
			op = &OpReport{Op: r.op}
			perOp[r.op] = op
		}
		op.Requests++
		switch r.class {
		case classOK:
			rep.OK++
			op.OK++
			lat = append(lat, r.ms)
			perOpLat[r.op] = append(perOpLat[r.op], r.ms)
		case classClientErr:
			rep.ClientErrors++
			op.Errors++
		case classServerErr:
			rep.ServerErrors++
			op.Errors++
		case classShed:
			rep.Shed++
			op.Errors++
		case classJobsShed:
			rep.JobsShed++
			op.Errors++
		case classBreaker:
			rep.BreakerOpen++
			op.Errors++
		case classDraining:
			rep.Draining++
			op.Errors++
		case classCanceled:
			rep.Canceled++
		default:
			rep.TransportErrors++
			op.Errors++
		}
	}
	rep.DurationS = time.Since(start).Seconds()
	if rep.DurationS > 0 {
		rep.RPS = float64(rep.Requests) / rep.DurationS
	}
	// Quantile returns NaN on an empty sample set, which JSON cannot
	// carry; a run with zero successes reports zero latencies (and fails
	// any budget via the r.OK == 0 check).
	if len(lat) > 0 {
		rep.P50Ms = stats.Quantile(lat, 0.5)
		rep.P99Ms = stats.Quantile(lat, 0.99)
		rep.P999Ms = stats.Quantile(lat, 0.999)
	}
	names := make([]string, 0, len(perOp))
	for name := range perOp {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		op := perOp[name]
		if ol := perOpLat[name]; len(ol) > 0 {
			op.P50Ms = stats.Quantile(ol, 0.5)
			op.P99Ms = stats.Quantile(ol, 0.99)
			op.P999Ms = stats.Quantile(ol, 0.999)
		}
		rep.Ops = append(rep.Ops, *op)
	}
	return rep
}

// Render writes the human-readable table.
func (r Report) Render(w io.Writer) {
	_, _ = fmt.Fprintf(w, "loadgen: %d requests in %.2fs (%.1f req/s), %d ok\n",
		r.Requests, r.DurationS, r.RPS, r.OK)
	_, _ = fmt.Fprintf(w, "  errors: client=%d server=%d transport=%d shed=%d jobs_shed=%d breaker=%d draining=%d canceled=%d skipped=%d\n",
		r.ClientErrors, r.ServerErrors, r.TransportErrors,
		r.Shed, r.JobsShed, r.BreakerOpen, r.Draining, r.Canceled, r.Skipped)
	_, _ = fmt.Fprintf(w, "  latency: p50=%.2fms p99=%.2fms p99.9=%.2fms\n",
		r.P50Ms, r.P99Ms, r.P999Ms)
	_, _ = fmt.Fprintf(w, "  %-10s %8s %8s %8s %10s %10s %10s\n",
		"op", "requests", "ok", "errors", "p50_ms", "p99_ms", "p99.9_ms")
	for _, op := range r.Ops {
		_, _ = fmt.Fprintf(w, "  %-10s %8d %8d %8d %10.2f %10.2f %10.2f\n",
			op.Op, op.Requests, op.OK, op.Errors, op.P50Ms, op.P99Ms, op.P999Ms)
	}
}

// Budget is a committed latency/throughput budget; see
// scripts/load_budget.json. Zero MaxP99Ms or MinRPS means that check
// is skipped; the error ceilings are always enforced at their stated
// value (zero = none allowed).
type Budget struct {
	MaxP99Ms           float64 `json:"max_p99_ms"`
	MinRPS             float64 `json:"min_rps"`
	MaxServerErrors    int64   `json:"max_server_errors"`
	MaxTransportErrors int64   `json:"max_transport_errors"`
}

// Check returns the budget violations (empty means within budget).
func (b Budget) Check(r Report) []string {
	var out []string
	if r.OK == 0 {
		out = append(out, "no successful responses at all")
	}
	if b.MaxP99Ms > 0 && r.P99Ms > b.MaxP99Ms {
		out = append(out, fmt.Sprintf("p99 %.2fms exceeds budget %.2fms", r.P99Ms, b.MaxP99Ms))
	}
	if b.MinRPS > 0 && r.RPS < b.MinRPS {
		out = append(out, fmt.Sprintf("throughput %.1f req/s under budget %.1f", r.RPS, b.MinRPS))
	}
	if r.ServerErrors > b.MaxServerErrors {
		out = append(out, fmt.Sprintf("%d server errors exceed budget %d", r.ServerErrors, b.MaxServerErrors))
	}
	if r.TransportErrors > b.MaxTransportErrors {
		out = append(out, fmt.Sprintf("%d transport errors exceed budget %d", r.TransportErrors, b.MaxTransportErrors))
	}
	return out
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"archline/internal/machine"
	"archline/internal/model"
	"archline/internal/units"
)

// Sweep-grid defaults the server fills in when a request leaves them out.
const (
	defaultIMin   = 0.125
	defaultIMax   = 512
	defaultPoints = 49
)

// defaultFracs is the server's what-if throttle cap schedule.
var defaultFracs = []float64{1, 0.5, 0.25, 0.125}

// refitTolerance is the refit acceptance bound: ε_flop, ε_mem and π₁
// within 5% of Table I, at fit grade A or B.
const refitTolerance = 0.05

// Wire mirrors of the server's responses. Field sets and tags follow
// the JSON the daemon emits, so re-marshalling a mirror costs what the
// server's own encode does.

type point struct {
	Intensity           float64  `json:"intensity"`
	Regime              string   `json:"regime"`
	FlopsPerSec         float64  `json:"flops_per_sec"`
	UncappedFlopsPerSec float64  `json:"uncapped_flops_per_sec,omitempty"`
	FlopsPerJoule       float64  `json:"flops_per_joule"`
	AvgPowerW           float64  `json:"avg_power_w"`
	Throttle            *float64 `json:"throttle,omitempty"`
}

type rooflineResp struct {
	PlatformID string  `json:"platform_id"`
	Name       string  `json:"name"`
	Precision  string  `json:"precision"`
	IMin       float64 `json:"imin"`
	IMax       float64 `json:"imax"`
	Balances   struct {
		BTau      *float64 `json:"b_tau"`
		BEps      *float64 `json:"b_eps"`
		BTauMinus *float64 `json:"b_tau_minus"`
		BTauPlus  *float64 `json:"b_tau_plus"`
	} `json:"balances"`
	Peak struct {
		FlopsPerSec   float64 `json:"flops_per_sec"`
		BytesPerSec   float64 `json:"bytes_per_sec"`
		FlopsPerJoule float64 `json:"flops_per_joule"`
		AvgPowerW     float64 `json:"avg_power_w"`
	} `json:"peak"`
	CapBinds bool    `json:"cap_binds"`
	Points   []point `json:"points"`
}

type queryResp struct {
	Platform      string   `json:"platform"`
	Precision     string   `json:"precision"`
	Regime        string   `json:"regime"`
	WFlops        *float64 `json:"w_flops,omitempty"`
	QBytes        *float64 `json:"q_bytes,omitempty"`
	Intensity     float64  `json:"intensity"`
	TimeS         *float64 `json:"time_s,omitempty"`
	EnergyJ       *float64 `json:"energy_j,omitempty"`
	FlopsPerSec   *float64 `json:"flops_per_sec"`
	FlopsPerJoule *float64 `json:"flops_per_joule"`
	AvgPowerW     *float64 `json:"avg_power_w"`
	Throttle      *float64 `json:"throttle,omitempty"`
}

type batchResp struct {
	Items   int               `json:"items"`
	Results []json.RawMessage `json:"results"`
}

type seriesJSON struct {
	Name   string `json:"name"`
	Points []struct {
		Intensity float64 `json:"intensity"`
		Value     float64 `json:"value"`
	} `json:"points"`
}

type compareResp struct {
	AName            string       `json:"a_name"`
	BName            string       `json:"b_name"`
	AggCount         int          `json:"agg_count"`
	EnergyCrossover  *float64     `json:"energy_crossover,omitempty"`
	AggPerfCrossover *float64     `json:"agg_perf_crossover,omitempty"`
	MaxAggSpeedup    float64      `json:"max_agg_speedup"`
	AggPeakFraction  float64      `json:"agg_peak_fraction"`
	Perf             []seriesJSON `json:"perf"`
	Eff              []seriesJSON `json:"eff"`
	Power            []seriesJSON `json:"power"`
}

type whatifResp struct {
	Kind     string `json:"kind"`
	Platform string `json:"platform,omitempty"`
	Throttle []struct {
		Frac           float64 `json:"frac"`
		PeakPowerRatio float64 `json:"peak_power_ratio"`
		Points         []point `json:"points"`
	} `json:"throttle,omitempty"`
}

type platformsResp struct {
	Platforms []struct {
		ID                 string  `json:"id"`
		Name               string  `json:"name"`
		Processor          string  `json:"processor"`
		Microarch          string  `json:"microarch,omitempty"`
		Class              string  `json:"class"`
		IsGPU              bool    `json:"is_gpu"`
		VendorSingleGflops float64 `json:"vendor_single_gflops"`
		VendorMemGBs       float64 `json:"vendor_mem_gbs"`
		Pi1W               float64 `json:"pi1_w"`
		DeltaPiW           float64 `json:"delta_pi_w"`
		PeakGflopsPerJoule float64 `json:"peak_gflops_per_joule"`
		ConstantPowerShare float64 `json:"constant_power_share"`
		SupportsDouble     bool    `json:"supports_double"`
	} `json:"platforms"`
}

// params is a built-in's model at a precision.
func params(id, precision string) (model.Params, error) {
	plat, ok := builtinByID[id]
	if !ok {
		return model.Params{}, fmt.Errorf("unknown built-in %q", id)
	}
	if precision == "double" {
		return plat.DoubleParams()
	}
	return plat.Single, nil
}

// gridIntensity is point idx of the server's n-point log-spaced grid,
// by the formula the server evaluates on the fly.
func gridIntensity(imin, imax float64, idx, n int) float64 {
	l0, l1 := math.Log(imin), math.Log(imax)
	frac := float64(idx) / float64(n-1)
	return math.Exp(l0 + frac*(l1-l0))
}

// finite boxes x, or nil when it is NaN or infinite, as the server's
// JSON does.
func finite(x float64) *float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return nil
	}
	return &x
}

// refPoint evaluates one grid point with the model.Params methods — the
// reference evaluator, independent of the kernel the server runs.
func refPoint(p model.Params, iv float64) point {
	i := units.Intensity(iv)
	return point{
		Intensity:           iv,
		Regime:              p.RegimeAt(i).Letter(),
		FlopsPerSec:         p.FlopRateAt(i).FlopsPerSec(),
		UncappedFlopsPerSec: p.FlopRateAtUncapped(i).FlopsPerSec(),
		FlopsPerJoule:       p.FlopsPerJouleAt(i).FlopsPerJoule(),
		AvgPowerW:           p.AvgPowerAt(i).Watts(),
		Throttle:            finite(p.ThrottleFactor(i)),
	}
}

// sameBits requires two floats to be bit-equal.
func sameBits(name string, got, want float64) error {
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("%s = %v, reference %v", name, got, want)
	}
	return nil
}

// sameOpt requires two optional floats to be both absent or bit-equal.
func sameOpt(name string, got, want *float64) error {
	switch {
	case got == nil && want == nil:
		return nil
	case got == nil || want == nil:
		return fmt.Errorf("%s present %v, reference present %v", name, got != nil, want != nil)
	}
	return sameBits(name, *got, *want)
}

func samePoint(got, want point) error {
	if got.Regime != want.Regime {
		return fmt.Errorf("regime %q, reference %q", got.Regime, want.Regime)
	}
	return errors.Join(
		sameBits("intensity", got.Intensity, want.Intensity),
		sameBits("flops_per_sec", got.FlopsPerSec, want.FlopsPerSec),
		sameBits("uncapped_flops_per_sec", got.UncappedFlopsPerSec, want.UncappedFlopsPerSec),
		sameBits("flops_per_joule", got.FlopsPerJoule, want.FlopsPerJoule),
		sameBits("avg_power_w", got.AvgPowerW, want.AvgPowerW),
		sameOpt("throttle", got.Throttle, want.Throttle),
	)
}

// verify checks one answer against the request that produced it.
func verify(sp *spec, body []byte) error {
	switch sp.op {
	case opQuery:
		return verifyQuery(body, sp.plats[0], sp.intensities[0])
	case opBatch:
		return verifyBatch(body, sp)
	case opRoofline:
		return verifyRoofline(body, sp.plats[0], builtinByID[sp.plats[0]].Single, "single", sp.points)
	case opCompare:
		return verifyCompare(body, sp)
	case opWhatIf:
		return verifyWhatIf(body, sp)
	case opPlatforms:
		return verifyPlatforms(body)
	case opStream:
		return verifyStream(body, sp)
	}
	return fmt.Errorf("no verifier for op %q", sp.op)
}

// verifyQuery requires an intensity query's answer to be bit-equal to
// the model.Params reference for the same platform and intensity.
func verifyQuery(body []byte, id string, iv float64) error {
	var q queryResp
	if err := json.Unmarshal(body, &q); err != nil {
		return fmt.Errorf("query %s: %w", id, err)
	}
	plat := builtinByID[id]
	p, i := plat.Single, units.Intensity(iv)
	if q.Platform != plat.Name || q.Precision != "single" || q.Regime != p.RegimeAt(i).Letter() {
		return fmt.Errorf("query %s at %v: platform %q precision %q regime %q", id, iv, q.Platform, q.Precision, q.Regime)
	}
	if err := errors.Join(
		sameBits("intensity", q.Intensity, iv),
		sameOpt("flops_per_sec", q.FlopsPerSec, finite(p.FlopRateAt(i).FlopsPerSec())),
		sameOpt("flops_per_joule", q.FlopsPerJoule, finite(p.FlopsPerJouleAt(i).FlopsPerJoule())),
		sameOpt("avg_power_w", q.AvgPowerW, finite(p.AvgPowerAt(i).Watts())),
		sameOpt("throttle", q.Throttle, finite(p.ThrottleFactor(i))),
	); err != nil {
		return fmt.Errorf("query %s at %v: %w", id, iv, err)
	}
	return nil
}

func verifyBatch(body []byte, sp *spec) error {
	var b batchResp
	if err := json.Unmarshal(body, &b); err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	if b.Items != len(sp.plats) || len(b.Results) != len(sp.plats) {
		return fmt.Errorf("batch: %d items, %d results for %d requested", b.Items, len(b.Results), len(sp.plats))
	}
	for i, r := range b.Results {
		if err := verifyQuery(r, sp.plats[i], sp.intensities[i]); err != nil {
			return fmt.Errorf("batch item %d: %w", i, err)
		}
	}
	return nil
}

// verifyRoofline requires every point of an n-point default-grid
// roofline to be bit-equal to the reference evaluated on p: for an
// uploaded platform, p is the uploaded version's constants, so a stale
// version's answer fails.
func verifyRoofline(body []byte, id string, p model.Params, precision string, n int) error {
	var r rooflineResp
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("roofline %s: %w", id, err)
	}
	if r.PlatformID != id || r.Precision != precision || len(r.Points) != n {
		return fmt.Errorf("roofline %s: platform %q precision %q with %d points, want %d",
			id, r.PlatformID, r.Precision, len(r.Points), n)
	}
	for i, got := range r.Points {
		if err := samePoint(got, refPoint(p, gridIntensity(defaultIMin, defaultIMax, i, n))); err != nil {
			return fmt.Errorf("roofline %s point %d: %w", id, i, err)
		}
	}
	return nil
}

func verifyCompare(body []byte, sp *spec) error {
	var r compareResp
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("compare: %w", err)
	}
	a, b := builtinByID[sp.plats[0]], builtinByID[sp.plats[1]]
	if r.AName != a.Name || r.BName != b.Name {
		return fmt.Errorf("compare: names %q/%q, want %q/%q", r.AName, r.BName, a.Name, b.Name)
	}
	for _, set := range [][]seriesJSON{r.Perf, r.Eff, r.Power} {
		if len(set) != 3 {
			return fmt.Errorf("compare: %d curves per metric, want 3", len(set))
		}
		for _, s := range set {
			if len(s.Points) == 0 || len(s.Points) > sp.points {
				return fmt.Errorf("compare: curve %q has %d points on a %d-point grid", s.Name, len(s.Points), sp.points)
			}
		}
	}
	return nil
}

func verifyWhatIf(body []byte, sp *spec) error {
	var r whatifResp
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("whatif: %w", err)
	}
	plat := builtinByID[sp.plats[0]]
	if r.Kind != "throttle" || r.Platform != plat.Name || len(r.Throttle) != len(defaultFracs) {
		return fmt.Errorf("whatif: kind %q platform %q with %d curves", r.Kind, r.Platform, len(r.Throttle))
	}
	for _, c := range r.Throttle {
		if len(c.Points) != defaultPoints {
			return fmt.Errorf("whatif: cap %v curve has %d points, want %d", c.Frac, len(c.Points), defaultPoints)
		}
	}
	return nil
}

func verifyPlatforms(body []byte) error {
	var r platformsResp
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("platforms: %w", err)
	}
	ids := make(map[string]bool, len(r.Platforms))
	for _, p := range r.Platforms {
		ids[p.ID] = true
	}
	for _, p := range builtins {
		if !ids[string(p.ID)] {
			return fmt.Errorf("platforms: built-in %s missing", p.ID)
		}
	}
	return nil
}

// verifyStream checks an inflated NDJSON sweep stream: a header echoing
// the request, chunks with contiguous seq carrying exactly the requested
// point count, a done:true trailer, and the seeded sample of points
// bit-equal to the reference.
func verifyStream(body []byte, sp *spec) error {
	p, err := params(sp.plats[0], sp.precision)
	if err != nil {
		return err
	}
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	chunks := (sp.points + sp.chunk - 1) / sp.chunk
	if len(lines) != chunks+2 {
		return fmt.Errorf("stream: %d lines, want header, %d chunks and trailer", len(lines), chunks)
	}
	var hdr struct {
		PlatformID  string  `json:"platform_id"`
		Precision   string  `json:"precision"`
		IMin        float64 `json:"imin"`
		IMax        float64 `json:"imax"`
		Points      int     `json:"points"`
		ChunkPoints int     `json:"chunk_points"`
	}
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		return fmt.Errorf("stream header: %w", err)
	}
	if hdr.PlatformID != sp.plats[0] || hdr.Precision != sp.precision || hdr.Points != sp.points ||
		hdr.ChunkPoints != sp.chunk || hdr.IMin != defaultIMin || hdr.IMax != defaultIMax {
		return fmt.Errorf("stream header %s does not echo the request", lines[0])
	}
	sampled := map[int][]int{}
	for _, idx := range sp.sample {
		sampled[idx/sp.chunk] = append(sampled[idx/sp.chunk], idx)
	}
	for c := 0; c < chunks; c++ {
		line := lines[1+c]
		seq, err := chunkSeq(line)
		if err != nil {
			return err
		}
		if seq != c {
			return fmt.Errorf("stream: chunk %d carries seq %d", c, seq)
		}
		want := min(sp.chunk, sp.points-c*sp.chunk)
		if n := bytes.Count(line, []byte(`{"intensity":`)); n != want {
			return fmt.Errorf("stream: chunk %d has %d points, want %d", c, n, want)
		}
		if len(sampled[c]) == 0 {
			continue
		}
		var ch struct {
			Points []point `json:"points"`
		}
		if err := json.Unmarshal(line, &ch); err != nil {
			return fmt.Errorf("stream chunk %d: %w", c, err)
		}
		for _, idx := range sampled[c] {
			ref := refPoint(p, gridIntensity(defaultIMin, defaultIMax, idx, sp.points))
			if err := samePoint(ch.Points[idx-c*sp.chunk], ref); err != nil {
				return fmt.Errorf("stream point %d: %w", idx, err)
			}
		}
	}
	var tr struct {
		Done   bool            `json:"done"`
		Chunks int             `json:"chunks"`
		Points int             `json:"points"`
		Error  json.RawMessage `json:"error"`
	}
	last := lines[len(lines)-1]
	if err := json.Unmarshal(last, &tr); err != nil {
		return fmt.Errorf("stream trailer: %w", err)
	}
	if !tr.Done || tr.Chunks != chunks || tr.Points != sp.points || tr.Error != nil {
		return fmt.Errorf("stream trailer %s, want done with %d chunks and %d points", last, chunks, sp.points)
	}
	return nil
}

// chunkSeq reads the seq field that opens a chunk line.
func chunkSeq(line []byte) (int, error) {
	rest, ok := bytes.CutPrefix(line, []byte(`{"seq":`))
	end := bytes.IndexByte(rest, ',')
	if !ok || end < 0 {
		return 0, fmt.Errorf("stream: not a chunk line: %.40s", line)
	}
	return strconv.Atoi(string(rest[:end]))
}

// verifyEvents requires a job's event stream to end with a done trailer
// in state done.
func verifyEvents(body []byte) error {
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	last := lines[len(lines)-1]
	var tr struct {
		Done  bool   `json:"done"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(last, &tr); err != nil {
		return fmt.Errorf("job events trailer: %w", err)
	}
	if !tr.Done || tr.State != "done" {
		return fmt.Errorf("job events trailer %s", last)
	}
	return nil
}

// checkFit applies the refit acceptance bound.
func checkFit(plat *machine.Platform, grade string, epsFlop, epsMem, pi1 float64) error {
	if grade != "A" && grade != "B" {
		return fmt.Errorf("refit %s: grade %s, want A or B", plat.ID, grade)
	}
	truth := plat.Single
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"eps_flop", epsFlop, truth.EpsFlop.JoulesPerFlop()},
		{"eps_mem", epsMem, truth.EpsMem.JoulesPerByte()},
		{"pi1", pi1, truth.Pi1.Watts()},
	} {
		if re := math.Abs(c.got-c.want) / math.Abs(c.want); !(re <= refitTolerance) {
			return fmt.Errorf("refit %s: %s = %g, Table I %g (off by %.1f%%)", plat.ID, c.name, c.got, c.want, 100*re)
		}
	}
	return nil
}

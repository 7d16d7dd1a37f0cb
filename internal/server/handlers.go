package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"archline/internal/machine"
	"archline/internal/model"
	"archline/internal/scenario"
	"archline/internal/units"
)

// Sweep-grid defaults and bounds shared by the sweep endpoints. The
// defaults are the paper's figure grid (fig. 5 uses 0.125-512 flop:Byte).
const (
	defaultIMin   = 0.125
	defaultIMax   = 512
	defaultPoints = 49
	maxPoints     = 4096
)

// nf boxes a float for JSON, mapping non-finite values (open-ended cap
// intervals, zero-DeltaPi throttles) to null instead of breaking the
// encoder.
func nf(x float64) *float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return nil
	}
	return &x
}

// platformRef selects a machine: a platform ID (built-in Table I or a
// registered upload), or a caller-supplied inline description in the
// -platform-file JSON schema.
type platformRef struct {
	ID     string          `json:"platform_id,omitempty"`
	Custom json.RawMessage `json:"platform,omitempty"`
}

// resolvePlatform returns the platform plus a canonical cache-key
// fragment. IDs resolve through the registry — one path for built-ins
// and uploads — and their fragment carries the entry's version
// ("id:<id>@v<N>"), so a response cached against a platform that is
// later re-uploaded is structurally unreachable: the new version makes
// a new key. Inline custom platforms key on their canonical encoding,
// so formatting variations of one description share a cache slot.
func (s *Server) resolvePlatform(ref platformRef) (*machine.Platform, string, *apiError) {
	switch {
	case ref.ID != "" && len(ref.Custom) > 0:
		return nil, "", errBadRequest("give either platform_id or platform, not both")
	case ref.ID != "":
		e, err := s.registry.Get(ref.ID)
		if err != nil {
			return nil, "", errNotFound("unknown platform %q (GET /v1/platforms lists the registry)", ref.ID)
		}
		s.metrics.notePlatformQuery(ref.ID)
		return e.Platform, e.CacheKey(), nil
	case len(ref.Custom) > 0:
		plat, err := machine.FromJSON(bytes.NewReader(ref.Custom))
		if err != nil {
			return nil, "", errBadRequest("bad custom platform: %v", err)
		}
		canon, err := machine.Canonical(plat)
		if err != nil {
			return nil, "", errInternal("canonicalizing platform: %v", err)
		}
		// Inline platforms share one counter bucket: their cardinality is
		// unbounded and the interesting signal is "how much traffic skips
		// the registry", not each ad-hoc description.
		s.metrics.notePlatformQuery("inline")
		return plat, "json:" + string(canon), nil
	default:
		return nil, "", errBadRequest("a platform is required: set platform_id or an inline platform description")
	}
}

// paramsFor picks the single- or double-precision model parameters.
func paramsFor(plat *machine.Platform, precision string) (model.Params, *apiError) {
	switch precision {
	case "", "single":
		return plat.Single, nil
	case "double":
		p, err := plat.DoubleParams()
		if err != nil {
			return model.Params{}, errBadRequest("%v", err)
		}
		return p, nil
	default:
		return model.Params{}, errBadRequest("unknown precision %q (want single or double)", precision)
	}
}

// --- GET /v1/platforms -------------------------------------------------

// platformInfo is one Table I row's API summary.
type platformInfo struct {
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
}

// platformsResponse is the database listing.
type platformsResponse struct {
	Platforms []platformInfo `json:"platforms"`
}

func (s *Server) handlePlatforms(_ http.ResponseWriter, _ *http.Request) (any, *apiError) {
	// The key carries the registry generation: any upload, re-upload, or
	// delete mints a new key, so the listing can never serve a stale
	// membership snapshot (the superseded key simply ages out of the LRU).
	key := "platforms@g" + strconv.FormatUint(s.registry.Generation(), 10)
	resp, aerr := s.cachedJSON(key, func() (any, *apiError) {
		s.noteEval()
		out := platformsResponse{}
		for _, e := range s.registry.List() {
			p := e.Platform
			out.Platforms = append(out.Platforms, platformInfo{
				ID:                 string(p.ID),
				Name:               p.Name,
				Processor:          p.Processor,
				Microarch:          p.Microarch,
				Class:              p.Class.String(),
				IsGPU:              p.IsGPU,
				VendorSingleGflops: p.Vendor.Single.FlopsPerSec() / 1e9,
				VendorMemGBs:       p.Vendor.MemBW.BytesPerSec() / 1e9,
				Pi1W:               p.Single.Pi1.Watts(),
				DeltaPiW:           p.Single.DeltaPi.Watts(),
				PeakGflopsPerJoule: p.Single.PeakFlopsPerJoule().FlopsPerJoule() / 1e9,
				ConstantPowerShare: p.ConstantPowerShare(),
				SupportsDouble:     p.SupportsDouble(),
			})
		}
		return out, nil
	})
	return resp, aerr
}

// --- GET /v1/platforms/{id}/roofline -----------------------------------

// sweepGrid is a parsed and defaulted intensity grid request.
type sweepGrid struct {
	IMin, IMax float64
	Points     int
}

// parseSweepQuery reads imin/imax/points query parameters with defaults
// and bounds checks.
func parseSweepQuery(r *http.Request) (sweepGrid, *apiError) {
	g := sweepGrid{IMin: defaultIMin, IMax: defaultIMax, Points: defaultPoints}
	q := r.URL.Query()
	parse := func(name string, dst *float64) *apiError {
		v := q.Get(name)
		if v == "" {
			return nil
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return errBadRequest("bad %s %q: %v", name, v, err)
		}
		*dst = f
		return nil
	}
	if aerr := parse("imin", &g.IMin); aerr != nil {
		return g, aerr
	}
	if aerr := parse("imax", &g.IMax); aerr != nil {
		return g, aerr
	}
	if v := q.Get("points"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return g, errBadRequest("bad points %q: %v", v, err)
		}
		g.Points = n
	}
	return g, g.validate(maxPoints)
}

// validate bounds-checks a grid wherever it came from (query or body),
// allowing at most maxN points.
func (g sweepGrid) validate(maxN int) *apiError {
	if !(g.IMin > 0) || math.IsInf(g.IMin, 0) {
		return errBadRequest("imin must be a positive finite intensity, got %g", g.IMin)
	}
	if !(g.IMax > g.IMin) || math.IsInf(g.IMax, 0) {
		return errBadRequest("imax must exceed imin, got [%g, %g]", g.IMin, g.IMax)
	}
	if g.Points < 2 || g.Points > maxN {
		return errBadRequest("points must be in [2, %d], got %d", maxN, g.Points)
	}
	return nil
}

// orDefaults fills zero fields of a body-supplied grid.
func (g sweepGrid) orDefaults() sweepGrid {
	if g.IMin == 0 {
		g.IMin = defaultIMin
	}
	if g.IMax == 0 {
		g.IMax = defaultIMax
	}
	if g.Points == 0 {
		g.Points = defaultPoints
	}
	return g
}

// rooflinePoint is one intensity sample of eqs. (2), (4), and (7).
type rooflinePoint struct {
	Intensity           float64  `json:"intensity"`
	Regime              string   `json:"regime"`
	FlopsPerSec         float64  `json:"flops_per_sec"`
	UncappedFlopsPerSec float64  `json:"uncapped_flops_per_sec,omitempty"`
	FlopsPerJoule       float64  `json:"flops_per_joule"`
	AvgPowerW           float64  `json:"avg_power_w"`
	Throttle            *float64 `json:"throttle,omitempty"`
}

// rooflineResponse is a full model sweep for one platform.
type rooflineResponse struct {
	PlatformID string  `json:"platform_id"`
	Name       string  `json:"name"`
	Precision  string  `json:"precision"`
	IMin       float64 `json:"imin"`
	IMax       float64 `json:"imax"`

	Balances struct {
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
	CapBinds bool            `json:"cap_binds"`
	Points   []rooflinePoint `json:"points"`
}

// sweepRoofline evaluates the model over the grid; it is the shared
// compute behind the roofline endpoint. The grid points go through the
// kernel (the balance/peak summary stays on Params — once per response,
// off the hot path), evaluated on the fly with the LogSpace formula so
// the grid is never materialized; finite throttles share one exact-size
// backing array instead of a per-point nf box. The context bounds long
// sweeps.
func sweepRoofline(ctx context.Context, id, name, precision string, p model.Params, k model.Kernel, g sweepGrid) (*rooflineResponse, *apiError) {
	out := &rooflineResponse{
		PlatformID: id, Name: name, Precision: precision,
		IMin: g.IMin, IMax: g.IMax,
	}
	out.Balances.BTau = nf(p.TimeBalance().Ratio())
	out.Balances.BEps = nf(p.EnergyBalance().Ratio())
	out.Balances.BTauMinus = nf(p.TimeBalanceMinus().Ratio())
	out.Balances.BTauPlus = nf(p.TimeBalancePlus().Ratio())
	out.Peak.FlopsPerSec = p.PeakFlopRate().FlopsPerSec()
	out.Peak.BytesPerSec = p.PeakByteRate().BytesPerSec()
	out.Peak.FlopsPerJoule = p.PeakFlopsPerJoule().FlopsPerJoule()
	out.Peak.AvgPowerW = p.PeakAvgPower().Watts()
	out.CapBinds = !p.Powerful()
	l0, l1 := math.Log(g.IMin), math.Log(g.IMax)
	out.Points = make([]rooflinePoint, 0, g.Points)
	throttles := make([]float64, g.Points)
	for idx := 0; idx < g.Points; idx++ {
		// Sweeps are cheap but unbounded in points; honour the request
		// deadline without paying a context check per point.
		if idx%64 == 0 && ctx.Err() != nil {
			return nil, errTimeout()
		}
		frac := float64(idx) / float64(g.Points-1)
		pt := k.PointAt(math.Exp(l0 + frac*(l1-l0)))
		rp := rooflinePoint{
			Intensity:           pt.Intensity,
			Regime:              pt.Regime.Letter(),
			FlopsPerSec:         pt.FlopsPerSec,
			UncappedFlopsPerSec: pt.UncappedFlopsPerSec,
			FlopsPerJoule:       pt.FlopsPerJoule,
			AvgPowerW:           pt.AvgPowerW,
		}
		if t := pt.Throttle; !math.IsNaN(t) && !math.IsInf(t, 0) {
			throttles[idx] = t
			rp.Throttle = &throttles[idx]
		}
		out.Points = append(out.Points, rp)
	}
	return out, nil
}

func (s *Server) handleRoofline(_ http.ResponseWriter, r *http.Request) (any, *apiError) {
	id := r.PathValue("id")
	e, err := s.registry.Get(id)
	if err != nil {
		return nil, errNotFound("unknown platform %q (GET /v1/platforms lists the registry)", id)
	}
	s.metrics.notePlatformQuery(id)
	plat := e.Platform
	g, aerr := parseSweepQuery(r)
	if aerr != nil {
		return nil, aerr
	}
	precision := r.URL.Query().Get("precision")
	p, aerr := paramsFor(plat, precision)
	if aerr != nil {
		return nil, aerr
	}
	if precision == "" {
		precision = "single"
	}
	key := fmt.Sprintf("roofline|%s|%s|%g|%g|%d", e.CacheKey(), precision, g.IMin, g.IMax, g.Points)
	ctx := r.Context()
	resp, aerr := s.cachedJSON(key, func() (any, *apiError) {
		s.noteEval()
		k := model.NewKernel(p)
		return sweepRoofline(ctx, id, plat.Name, precision, p, k, g)
	})
	return resp, aerr
}

// --- POST /v1/query ----------------------------------------------------

// queryRequest asks for the model's outputs on one machine, either for a
// concrete (W, Q) workload or at an operational intensity.
type queryRequest struct {
	platformRef
	Precision string   `json:"precision,omitempty"`
	WFlops    *float64 `json:"w_flops,omitempty"`
	QBytes    *float64 `json:"q_bytes,omitempty"`
	Intensity *float64 `json:"intensity,omitempty"`
}

// queryResponse is the evaluated model point.
type queryResponse struct {
	Platform  string `json:"platform"`
	Precision string `json:"precision"`
	Regime    string `json:"regime"`

	// Workload echo; intensity is set in both modes, and null when W/Q
	// is not finite (Q = 0, or an overflowing ratio).
	WFlops    *float64 `json:"w_flops,omitempty"`
	QBytes    *float64 `json:"q_bytes,omitempty"`
	Intensity *float64 `json:"intensity"`

	// Concrete-workload outputs (eqs. (1) and (3)); null in intensity mode.
	TimeS   *float64 `json:"time_s,omitempty"`
	EnergyJ *float64 `json:"energy_j,omitempty"`

	// Rate outputs, defined in both modes (eqs. (2), (4), (7)).
	FlopsPerSec   *float64 `json:"flops_per_sec"`
	FlopsPerJoule *float64 `json:"flops_per_joule"`
	AvgPowerW     *float64 `json:"avg_power_w"`
	Throttle      *float64 `json:"throttle,omitempty"`
}

func (s *Server) handleQuery(_ http.ResponseWriter, r *http.Request) (any, *apiError) {
	var req queryRequest
	if aerr := s.decodeBody(r, &req); aerr != nil {
		return nil, aerr
	}
	resp, aerr := s.evalQuery(req)
	if aerr != nil {
		return nil, aerr
	}
	return resp, nil
}

// evalQuery validates and serves one query item through the shared
// response cache and singleflight group. POST /v1/query sends its
// single item here and POST /v1/batch sends each of its N items, so a
// batch item, an equivalent single query, and a concurrent duplicate
// all share one cache slot and at most one model evaluation.
func (s *Server) evalQuery(req queryRequest) (*cachedResponse, *apiError) {
	plat, platKey, aerr := s.resolvePlatform(req.platformRef)
	if aerr != nil {
		return nil, aerr
	}
	p, aerr := paramsFor(plat, req.Precision)
	if aerr != nil {
		return nil, aerr
	}
	precision := req.Precision
	if precision == "" {
		precision = "single"
	}

	workload := req.WFlops != nil || req.QBytes != nil
	switch {
	case workload && req.Intensity != nil:
		return nil, errBadRequest("give either (w_flops, q_bytes) or intensity, not both")
	case workload && (req.WFlops == nil || req.QBytes == nil):
		return nil, errBadRequest("a workload query needs both w_flops and q_bytes")
	case !workload && req.Intensity == nil:
		return nil, errBadRequest("give a workload (w_flops, q_bytes) or an intensity")
	}

	keyStruct := struct {
		Plat, Prec string
		W, Q, I    *float64
	}{platKey, precision, req.WFlops, req.QBytes, req.Intensity}
	keyBytes, err := json.Marshal(keyStruct)
	if err != nil {
		return nil, errInternal("canonicalizing query: %v", err)
	}

	resp, aerr := s.cachedJSON("query|"+string(keyBytes), func() (any, *apiError) {
		s.noteEval()
		out := &queryResponse{Platform: plat.Name, Precision: precision}
		if workload {
			w, q := *req.WFlops, *req.QBytes
			if !(w >= 0) || !(q >= 0) || math.IsInf(w, 0) || math.IsInf(q, 0) {
				return nil, errBadRequest("w_flops and q_bytes must be finite and non-negative")
			}
			pred := p.Predict(units.Flops(w), units.Bytes(q))
			out.WFlops, out.QBytes = nf(w), nf(q)
			out.Intensity = nf(pred.I.Ratio())
			out.Regime = pred.Regime.Letter()
			out.TimeS = nf(pred.Time.Seconds())
			out.EnergyJ = nf(pred.Energy.Joules())
			out.AvgPowerW = nf(pred.AvgPower.Watts())
			if t := pred.Time.Seconds(); t > 0 {
				out.FlopsPerSec = nf(w / t)
			}
			if e := pred.Energy.Joules(); e > 0 {
				out.FlopsPerJoule = nf(w / e)
			}
			return out, nil
		}
		iv := *req.Intensity
		if !(iv > 0) || math.IsInf(iv, 0) {
			return nil, errBadRequest("intensity must be positive and finite, got %g", iv)
		}
		k := model.NewKernel(p)
		out.Intensity = nf(iv)
		out.Regime = k.RegimeAt(iv).Letter()
		out.FlopsPerSec = nf(k.FlopRateAt(iv))
		out.FlopsPerJoule = nf(k.FlopsPerJouleAt(iv))
		out.AvgPowerW = nf(k.AvgPowerAt(iv))
		out.Throttle = nf(k.ThrottleFactor(iv))
		return out, nil
	})
	return resp, aerr
}

// --- POST /v1/compare --------------------------------------------------

// compareRequest asks for the fig. 1 building-block analysis between
// machines a and b (b also power-matched into an aggregate).
type compareRequest struct {
	A platformRef `json:"a"`
	B platformRef `json:"b"`
	sweepGrid
}

// seriesJSON is one named curve over intensity.
type seriesJSON struct {
	Name   string      `json:"name"`
	Points []pointJSON `json:"points"`
}

// pointJSON is one metric sample.
type pointJSON struct {
	Intensity float64 `json:"intensity"`
	Value     float64 `json:"value"`
}

// toSeries converts a scenario curve, dropping non-finite samples.
func toSeries(s scenario.Series) seriesJSON {
	out := seriesJSON{Name: s.Name, Points: make([]pointJSON, 0, len(s.Points))}
	for _, p := range s.Points {
		if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
			continue
		}
		out.Points = append(out.Points, pointJSON{Intensity: p.I.Ratio(), Value: p.Value})
	}
	return out
}

// compareResponse is the fig. 1 analysis over the wire.
type compareResponse struct {
	AName    string `json:"a_name"`
	BName    string `json:"b_name"`
	AggCount int    `json:"agg_count"`

	EnergyCrossover  *float64 `json:"energy_crossover,omitempty"`
	AggPerfCrossover *float64 `json:"agg_perf_crossover,omitempty"`
	MaxAggSpeedup    float64  `json:"max_agg_speedup"`
	AggPeakFraction  float64  `json:"agg_peak_fraction"`

	Perf  []seriesJSON `json:"perf"`
	Eff   []seriesJSON `json:"eff"`
	Power []seriesJSON `json:"power"`
}

// crossoverField maps "no crossover" (zero) to an omitted field.
func crossoverField(i units.Intensity) *float64 {
	if i <= 0 {
		return nil
	}
	return nf(i.Ratio())
}

func (s *Server) handleCompare(_ http.ResponseWriter, r *http.Request) (any, *apiError) {
	var req compareRequest
	if aerr := s.decodeBody(r, &req); aerr != nil {
		return nil, aerr
	}
	a, aKey, aerr := s.resolvePlatform(req.A)
	if aerr != nil {
		return nil, aerr
	}
	b, bKey, aerr := s.resolvePlatform(req.B)
	if aerr != nil {
		return nil, aerr
	}
	g := req.sweepGrid.orDefaults()
	if aerr := g.validate(maxPoints); aerr != nil {
		return nil, aerr
	}
	key := fmt.Sprintf("compare|%s|%s|%g|%g|%d", aKey, bKey, g.IMin, g.IMax, g.Points)
	resp, aerr := s.cachedJSON(key, func() (any, *apiError) {
		s.noteEval()
		bc, err := scenario.CompareBlocks(a.Name, a.Single, b.Name, b.Single,
			units.Intensity(g.IMin), units.Intensity(g.IMax), g.Points)
		if err != nil {
			return nil, errBadRequest("%v", err)
		}
		out := &compareResponse{
			AName: bc.AName, BName: bc.BName, AggCount: bc.AggCount,
			EnergyCrossover:  crossoverField(bc.EnergyCrossover),
			AggPerfCrossover: crossoverField(bc.AggPerfCrossover),
			MaxAggSpeedup:    bc.MaxAggSpeedup,
			AggPeakFraction:  bc.AggPeakFraction,
		}
		for k := 0; k < 3; k++ {
			out.Perf = append(out.Perf, toSeries(bc.Perf[k]))
			out.Eff = append(out.Eff, toSeries(bc.Eff[k]))
			out.Power = append(out.Power, toSeries(bc.Power[k]))
		}
		return out, nil
	})
	return resp, aerr
}

// --- POST /v1/whatif ---------------------------------------------------

// whatifRequest runs one of the paper's what-if scenarios:
//
//   - "throttle": figs. 6-7, a machine swept under reduced power caps;
//   - "bound": section V-D, a big node throttled to a watt budget versus
//     an assembly of small nodes at the same budget;
//   - "aggregate": the fig. 1 power-matched construction, summarized.
type whatifRequest struct {
	Kind string `json:"kind"`

	// Platform drives "throttle".
	Platform platformRef `json:"platform,omitempty"`
	// Big and Small drive "bound" and "aggregate".
	Big   platformRef `json:"big,omitempty"`
	Small platformRef `json:"small,omitempty"`

	Fractions []float64 `json:"fractions,omitempty"` // throttle caps; default 1, 1/2, 1/4, 1/8
	BudgetW   float64   `json:"budget_w,omitempty"`  // bound watt budget
	Intensity float64   `json:"intensity,omitempty"` // bound evaluation intensity
	sweepGrid
}

// throttleCurveJSON is one cap setting's sweep.
type throttleCurveJSON struct {
	Frac           float64         `json:"frac"`
	PeakPowerRatio float64         `json:"peak_power_ratio"`
	Points         []rooflinePoint `json:"points"`
}

// whatifResponse covers all three kinds; unused sections are omitted.
type whatifResponse struct {
	Kind     string `json:"kind"`
	Platform string `json:"platform,omitempty"`

	Throttle []throttleCurveJSON `json:"throttle,omitempty"`

	Bound *struct {
		BudgetW      float64 `json:"budget_w"`
		Intensity    float64 `json:"intensity"`
		CapFrac      float64 `json:"cap_frac"`
		BigPerfRatio float64 `json:"big_perf_ratio"`
		SmallCount   int     `json:"small_count"`
		SmallVsBig   float64 `json:"small_vs_big"`
	} `json:"bound,omitempty"`

	Aggregate *struct {
		BName            string   `json:"b_name"`
		Count            int      `json:"count"`
		AggPeakFraction  float64  `json:"agg_peak_fraction"`
		MaxAggSpeedup    float64  `json:"max_agg_speedup"`
		AggPerfCrossover *float64 `json:"agg_perf_crossover,omitempty"`
	} `json:"aggregate,omitempty"`
}

// defaultFracs is the figs. 6-7 cap schedule.
var defaultFracs = []float64{1, 0.5, 0.25, 0.125}

func (s *Server) handleWhatIf(_ http.ResponseWriter, r *http.Request) (any, *apiError) {
	var req whatifRequest
	if aerr := s.decodeBody(r, &req); aerr != nil {
		return nil, aerr
	}
	switch req.Kind {
	case "throttle":
		return s.whatifThrottle(req)
	case "bound":
		return s.whatifBound(req)
	case "aggregate":
		return s.whatifAggregate(req)
	default:
		return nil, errBadRequest("unknown what-if kind %q (want throttle, bound, or aggregate)", req.Kind)
	}
}

func (s *Server) whatifThrottle(req whatifRequest) (any, *apiError) {
	plat, platKey, aerr := s.resolvePlatform(req.Platform)
	if aerr != nil {
		return nil, aerr
	}
	fracs := req.Fractions
	if len(fracs) == 0 {
		fracs = defaultFracs
	}
	if len(fracs) > 32 {
		return nil, errBadRequest("at most 32 cap fractions per request, got %d", len(fracs))
	}
	for _, f := range fracs {
		if !(f >= 0) || math.IsInf(f, 0) {
			return nil, errBadRequest("cap fractions must be finite and >= 0, got %g", f)
		}
	}
	g := req.sweepGrid.orDefaults()
	if aerr := g.validate(maxPoints); aerr != nil {
		return nil, aerr
	}
	key := fmt.Sprintf("whatif-throttle|%s|%v|%g|%g|%d", platKey, fracs, g.IMin, g.IMax, g.Points)
	resp, aerr := s.cachedJSON(key, func() (any, *apiError) {
		s.noteEval()
		grid := model.LogSpace(units.Intensity(g.IMin), units.Intensity(g.IMax), g.Points)
		curves, err := scenario.ThrottleSweep(plat.Single, fracs, grid)
		if err != nil {
			return nil, errBadRequest("%v", err)
		}
		out := &whatifResponse{Kind: "throttle", Platform: plat.Name}
		for _, c := range curves {
			cj := throttleCurveJSON{Frac: c.Frac, Points: make([]rooflinePoint, 0, len(c.Points))}
			ratio, err := scenario.PowerReduction(plat.Single, c.Frac)
			if err == nil {
				cj.PeakPowerRatio = ratio
			}
			for _, pt := range c.Points {
				cj.Points = append(cj.Points, rooflinePoint{
					Intensity:     pt.I.Ratio(),
					Regime:        pt.Regime.Letter(),
					FlopsPerSec:   pt.Perf.FlopsPerSec(),
					FlopsPerJoule: pt.Eff.FlopsPerJoule(),
					AvgPowerW:     pt.Power.Watts(),
				})
			}
			out.Throttle = append(out.Throttle, cj)
		}
		return out, nil
	})
	return resp, aerr
}

func (s *Server) whatifBound(req whatifRequest) (any, *apiError) {
	big, bigKey, aerr := s.resolvePlatform(req.Big)
	if aerr != nil {
		return nil, aerr
	}
	small, smallKey, aerr := s.resolvePlatform(req.Small)
	if aerr != nil {
		return nil, aerr
	}
	if !(req.BudgetW > 0) || math.IsInf(req.BudgetW, 0) {
		return nil, errBadRequest("budget_w must be positive and finite, got %g", req.BudgetW)
	}
	if !(req.Intensity > 0) || math.IsInf(req.Intensity, 0) {
		return nil, errBadRequest("intensity must be positive and finite, got %g", req.Intensity)
	}
	key := fmt.Sprintf("whatif-bound|%s|%s|%g|%g", bigKey, smallKey, req.BudgetW, req.Intensity)
	resp, aerr := s.cachedJSON(key, func() (any, *apiError) {
		s.noteEval()
		res, err := scenario.PowerBound(big.Single, small.Single,
			units.Power(req.BudgetW), units.Intensity(req.Intensity))
		if err != nil {
			return nil, errBadRequest("%v", err)
		}
		out := &whatifResponse{Kind: "bound", Platform: big.Name}
		out.Bound = &struct {
			BudgetW      float64 `json:"budget_w"`
			Intensity    float64 `json:"intensity"`
			CapFrac      float64 `json:"cap_frac"`
			BigPerfRatio float64 `json:"big_perf_ratio"`
			SmallCount   int     `json:"small_count"`
			SmallVsBig   float64 `json:"small_vs_big"`
		}{
			BudgetW:      res.Budget.Watts(),
			Intensity:    res.I.Ratio(),
			CapFrac:      res.CapFrac,
			BigPerfRatio: res.BigPerfRatio,
			SmallCount:   res.SmallCount,
			SmallVsBig:   res.SmallVsBig,
		}
		return out, nil
	})
	return resp, aerr
}

func (s *Server) whatifAggregate(req whatifRequest) (any, *apiError) {
	big, bigKey, aerr := s.resolvePlatform(req.Big)
	if aerr != nil {
		return nil, aerr
	}
	small, smallKey, aerr := s.resolvePlatform(req.Small)
	if aerr != nil {
		return nil, aerr
	}
	g := req.sweepGrid.orDefaults()
	if aerr := g.validate(maxPoints); aerr != nil {
		return nil, aerr
	}
	key := fmt.Sprintf("whatif-aggregate|%s|%s|%g|%g|%d", bigKey, smallKey, g.IMin, g.IMax, g.Points)
	resp, aerr := s.cachedJSON(key, func() (any, *apiError) {
		s.noteEval()
		bc, err := scenario.CompareBlocks(big.Name, big.Single, small.Name, small.Single,
			units.Intensity(g.IMin), units.Intensity(g.IMax), g.Points)
		if err != nil {
			return nil, errBadRequest("%v", err)
		}
		out := &whatifResponse{Kind: "aggregate", Platform: big.Name}
		out.Aggregate = &struct {
			BName            string   `json:"b_name"`
			Count            int      `json:"count"`
			AggPeakFraction  float64  `json:"agg_peak_fraction"`
			MaxAggSpeedup    float64  `json:"max_agg_speedup"`
			AggPerfCrossover *float64 `json:"agg_perf_crossover,omitempty"`
		}{
			BName:            bc.BName,
			Count:            bc.AggCount,
			AggPeakFraction:  bc.AggPeakFraction,
			MaxAggSpeedup:    bc.MaxAggSpeedup,
			AggPerfCrossover: crossoverField(bc.AggPerfCrossover),
		}
		return out, nil
	})
	return resp, aerr
}

package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"archline/internal/faults"
	"archline/internal/fit"
	"archline/internal/jobs"
	"archline/internal/machine"
	"archline/internal/microbench"
	"archline/internal/obs"
	"archline/internal/sim"
)

// Async fit-job bounds. A fit job runs the whole microbenchmark suite;
// the repeat and sweep caps keep one request from scheduling hours of
// simulated measurement.
const (
	maxFitRepeats     = 10
	maxFitSweepPoints = 256
)

// Default seeds for the async fit pipeline, matching the CLI measure
// defaults so `archline measure` and POST /v1/fit reproduce each other.
const (
	defaultFitSeed      = 42
	defaultFitFaultSeed = 7
)

// fitRequest submits an asynchronous measure→fit job: which platform to
// measure, under which fault profile, and the pipeline's seeds.
type fitRequest struct {
	platformRef
	// FaultProfile names the injector profile ("none", "paper",
	// "harsh"); empty means none.
	FaultProfile string `json:"fault_profile,omitempty"`
	// Seed drives the simulated measurement noise. Zero-omitted takes
	// the CLI default (42).
	Seed *uint64 `json:"seed,omitempty"`
	// FaultSeed drives the fault injector schedule. Zero-omitted takes
	// the CLI default (7).
	FaultSeed *uint64 `json:"fault_seed,omitempty"`
	// FitSeed seeds the fitter's optimizer restarts; defaults to Seed.
	FitSeed *uint64 `json:"fit_seed,omitempty"`
	// Repeats is the per-kernel robust repeat count (default 3, max 10).
	Repeats int `json:"repeats,omitempty"`
	// SweepPoints overrides the suite's intensity grid size (default
	// from microbench.DefaultConfig, min fit.MinSweepPoints, max 256).
	SweepPoints int `json:"sweep_points,omitempty"`
}

// fitSpec is the validated form of a fitRequest, carried into the job.
type fitSpec struct {
	plat        *machine.Platform
	prof        faults.Profile
	seed        uint64
	faultSeed   uint64
	fitSeed     uint64
	repeats     int
	sweepPoints int
}

// robustStatsBody is RobustStats on the wire.
type robustStatsBody struct {
	Repeats    int    `json:"repeats"`
	Retries    int    `json:"retries"`
	Discarded  int    `json:"discarded"`
	WorstGrade string `json:"worst_grade"`
}

// fittedParamsBody carries the fitted model constants in SI units.
type fittedParamsBody struct {
	TauFlopS    float64 `json:"tau_flop_s_per_flop"`
	TauMemS     float64 `json:"tau_mem_s_per_byte"`
	EpsFlopJ    float64 `json:"eps_flop_j_per_flop"`
	EpsMemJ     float64 `json:"eps_mem_j_per_byte"`
	Pi1W        float64 `json:"pi1_w"`
	DeltaPiW    float64 `json:"delta_pi_w"`
	IdlePowerW  float64 `json:"idle_power_w"`
	Kernels     int     `json:"kernels"`
	ResidualLog float64 `json:"residual_log"`
}

// fitResult is a Done fit job's terminal body: identity, robustness
// stats, the fitted constants, and the fit's trustworthiness grade.
type fitResult struct {
	PlatformID    string           `json:"platform_id,omitempty"`
	Platform      string           `json:"platform"`
	FaultProfile  string           `json:"fault_profile"`
	Seed          uint64           `json:"seed"`
	FaultSeed     uint64           `json:"fault_seed"`
	FitSeed       uint64           `json:"fit_seed"`
	Robust        robustStatsBody  `json:"robust"`
	Fit           fittedParamsBody `json:"fit"`
	Contamination float64          `json:"contamination"`
	RobustApplied bool             `json:"robust_applied"`
	Grade         string           `json:"grade"`
}

// jobInfo is a job's wire representation for submit, poll, and cancel
// responses. Result is present only once the job is Done; Error only
// when it Failed or was Canceled.
type jobInfo struct {
	ID      string     `json:"id"`
	Name    string     `json:"name"`
	State   string     `json:"state"`
	Created time.Time  `json:"created"`
	Started *time.Time `json:"started,omitempty"`
	Ended   *time.Time `json:"ended,omitempty"`
	Events  int        `json:"events"`
	Error   string     `json:"error,omitempty"`
	Result  any        `json:"result,omitempty"`
}

// jobInfoFrom shapes a snapshot for the wire.
func jobInfoFrom(snap jobs.Snapshot) jobInfo {
	info := jobInfo{
		ID:      snap.ID,
		Name:    snap.Name,
		State:   snap.State.String(),
		Created: snap.Created,
		Events:  snap.Events,
		Result:  snap.Result,
	}
	if !snap.Started.IsZero() {
		t := snap.Started
		info.Started = &t
	}
	if !snap.Ended.IsZero() {
		t := snap.Ended
		info.Ended = &t
	}
	if snap.Err != nil {
		info.Error = snap.Err.Error()
	}
	return info
}

func errJobQueueFull() *apiError {
	return &apiError{Status: http.StatusTooManyRequests, Code: "job_queue_full",
		Message: "the job queue is full; retry after running jobs finish"}
}

func errJobsDraining() *apiError {
	return &apiError{Status: http.StatusServiceUnavailable, Code: "draining",
		Message: "the server is shutting down and no longer accepts jobs"}
}

// handleFitSubmit serves POST /v1/fit: validate the measure→fit request,
// submit it to the job engine, and answer 202 with the job's identity.
// The job itself runs the robust suite + fit off the request path, under
// a span tree rooted at this request's span (the submitting context is
// detached, so the request finishing never cancels the job).
func (s *Server) handleFitSubmit(w http.ResponseWriter, r *http.Request) (any, *apiError) {
	var req fitRequest
	if aerr := s.decodeBody(r, &req); aerr != nil {
		return nil, aerr
	}
	plat, _, aerr := s.resolvePlatform(req.platformRef)
	if aerr != nil {
		return nil, aerr
	}
	prof, err := faults.ByName(req.FaultProfile)
	if err != nil {
		return nil, errBadRequest("%v", err)
	}
	if req.Repeats < 0 || req.Repeats > maxFitRepeats {
		return nil, errBadRequest("repeats must be in [0, %d], got %d", maxFitRepeats, req.Repeats)
	}
	if req.SweepPoints != 0 && (req.SweepPoints < fit.MinSweepPoints || req.SweepPoints > maxFitSweepPoints) {
		return nil, errBadRequest("sweep_points must be 0 (the default) or in [%d, %d], got %d",
			fit.MinSweepPoints, maxFitSweepPoints, req.SweepPoints)
	}
	spec := fitSpec{
		plat:        plat,
		prof:        prof,
		seed:        defaultFitSeed,
		faultSeed:   defaultFitFaultSeed,
		repeats:     req.Repeats,
		sweepPoints: req.SweepPoints,
	}
	if req.Seed != nil {
		spec.seed = *req.Seed
	}
	if req.FaultSeed != nil {
		spec.faultSeed = *req.FaultSeed
	}
	spec.fitSeed = spec.seed
	if req.FitSeed != nil {
		spec.fitSeed = *req.FitSeed
	}
	// Detach severs the request's cancellation and deadline but keeps
	// its tracer, request ID, and active span: the job outlives this
	// request, yet its spans still parent under http./v1/fit and the
	// trace stays the submitting X-Request-Id.
	id, err := s.jobs.Submit(obs.Detach(r.Context()), "fit:"+plat.Name, s.fitJob(spec))
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		w.Header().Set("Retry-After", retryAfterHeader(time.Second))
		return nil, errJobQueueFull()
	case errors.Is(err, jobs.ErrClosed):
		return nil, errJobsDraining()
	case err != nil:
		return nil, errInternal("submitting job: %v", err)
	}
	snap, ok := s.jobs.Get(id)
	if !ok {
		return nil, errInternal("job %s vanished after submit", id)
	}
	resp, merr := marshalResponse(http.StatusAccepted, jobInfoFrom(snap))
	if merr != nil {
		return nil, errInternal("encoding response: %v", merr)
	}
	return resp, nil
}

// fitJob builds the job function for one validated fit spec: run the
// fault-tolerant microbenchmark suite, then fit the model constants,
// narrating each stage through the job's progress events and its own
// job.fit span.
func (s *Server) fitJob(spec fitSpec) jobs.Func {
	return func(ctx context.Context, p *jobs.Progress) (any, error) {
		ctx, span := obs.Start(ctx, "job.fit",
			obs.String("platform", spec.plat.Name), obs.String("profile", spec.prof.Name))
		defer span.End()
		cfg := microbench.DefaultConfig()
		if spec.sweepPoints > 0 {
			cfg.SweepPoints = spec.sweepPoints
		}
		simOpts := sim.Options{Seed: spec.seed}
		if spec.prof.Enabled() {
			simOpts.Faults = faults.New(spec.prof, spec.faultSeed)
		}
		p.Emit("measure.start", map[string]any{
			"platform": spec.plat.Name, "profile": spec.prof.Name, "seed": spec.seed,
		})
		res, rs, err := microbench.RunRobustContext(ctx, spec.plat, cfg, simOpts,
			microbench.RobustConfig{Repeats: spec.repeats})
		if err != nil {
			return nil, err
		}
		p.Emit("measure.done", map[string]any{
			"kernels": len(res.Measurements), "retries": rs.Retries,
			"discarded": rs.Discarded, "worst_grade": rs.WorstGrade.String(),
		})
		p.Emit("fit.start", nil)
		pf, err := fit.PlatformContext(ctx, res, fit.Options{Seed: spec.fitSeed})
		if err != nil {
			return nil, err
		}
		p.Emit("fit.done", map[string]any{"grade": pf.Grade.String()})
		var platID string
		if spec.plat.ID != "" {
			platID = string(spec.plat.ID)
		}
		return fitResult{
			PlatformID:   platID,
			Platform:     spec.plat.Name,
			FaultProfile: spec.prof.Name,
			Seed:         spec.seed,
			FaultSeed:    spec.faultSeed,
			FitSeed:      spec.fitSeed,
			Robust: robustStatsBody{
				Repeats:    rs.Repeats,
				Retries:    rs.Retries,
				Discarded:  rs.Discarded,
				WorstGrade: rs.WorstGrade.String(),
			},
			Fit: fittedParamsBody{
				TauFlopS:    pf.Params.TauFlop.SecondsPerFlop(),
				TauMemS:     pf.Params.TauMem.SecondsPerByte(),
				EpsFlopJ:    pf.Params.EpsFlop.JoulesPerFlop(),
				EpsMemJ:     pf.Params.EpsMem.JoulesPerByte(),
				Pi1W:        pf.Params.Pi1.Watts(),
				DeltaPiW:    pf.Params.DeltaPi.Watts(),
				IdlePowerW:  res.IdlePower.Watts(),
				Kernels:     len(res.Measurements),
				ResidualLog: pf.Residual,
			},
			Contamination: pf.Contamination,
			RobustApplied: pf.RobustApplied,
			Grade:         pf.Grade.String(),
		}, nil
	}
}

// handleJobGet serves GET /v1/jobs/{id}: the job's current snapshot.
// Never cached — a job's state is anything but a pure function of the
// request.
func (s *Server) handleJobGet(_ http.ResponseWriter, r *http.Request) (any, *apiError) {
	id := r.PathValue("id")
	snap, ok := s.jobs.Get(id)
	if !ok {
		return nil, errNotFound("no such job %q (finished jobs are evicted after their TTL)", id)
	}
	return jobInfoFrom(snap), nil
}

// handleJobCancel serves DELETE /v1/jobs/{id}: request cancellation and
// answer with the post-cancel snapshot. Queued jobs are canceled
// immediately; running jobs observe their context and land terminal
// shortly after. Canceling a terminal job is a no-op, not an error.
func (s *Server) handleJobCancel(_ http.ResponseWriter, r *http.Request) (any, *apiError) {
	id := r.PathValue("id")
	snap, ok := s.jobs.Cancel(id)
	if !ok {
		return nil, errNotFound("no such job %q (finished jobs are evicted after their TTL)", id)
	}
	return jobInfoFrom(snap), nil
}

// jobEventsHeader is the first NDJSON line of an events stream.
type jobEventsHeader struct {
	Job    string `json:"job"`
	Name   string `json:"name"`
	State  string `json:"state"`
	Replay int    `json:"replay"`
}

// jobEventsTrailer is the final NDJSON line. Done is true only when the
// stream followed the job all the way to a terminal state; hitting the
// request deadline first ends the stream with Error set instead (long
// follows need a raised -timeout).
type jobEventsTrailer struct {
	Done   bool       `json:"done"`
	State  string     `json:"state,omitempty"`
	Events int        `json:"events"`
	Error  *errorBody `json:"error,omitempty"`
}

// handleJobEvents serves GET /v1/jobs/{id}/events: the job's progress
// events as NDJSON — the retained history first, then live events as
// they happen, ending with a trailer once the job is terminal. Uses the
// same startNDJSON writer as the sweep stream.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) (any, *apiError) {
	id := r.PathValue("id")
	replay, live, unsubscribe, ok := s.jobs.Subscribe(id)
	if !ok {
		return nil, errNotFound("no such job %q (finished jobs are evicted after their TTL)", id)
	}
	defer unsubscribe()
	snap, _ := s.jobs.Get(id)

	out := startNDJSON(w, r, 0)
	defer out.Close()
	enc := json.NewEncoder(out)
	// Encode failures past this point mean the client went away; the
	// trailer protocol is the only error channel left.
	_ = enc.Encode(jobEventsHeader{
		Job: id, Name: snap.Name, State: snap.State.String(), Replay: len(replay),
	})
	out.Flush()
	events := 0
	for _, ev := range replay {
		_ = enc.Encode(ev)
		events++
	}
	out.Flush()
	ctx := r.Context()
	for {
		select {
		case ev, open := <-live:
			if !open {
				// Terminal: the engine closed the stream.
				final, _ := s.jobs.Get(id)
				_ = enc.Encode(jobEventsTrailer{
					Done: true, State: final.State.String(), Events: events,
				})
				out.Flush()
				return nil, nil
			}
			_ = enc.Encode(ev)
			events++
			out.Flush()
		case <-ctx.Done():
			aerr := errTimeout()
			cur, _ := s.jobs.Get(id)
			_ = enc.Encode(jobEventsTrailer{
				State: cur.State.String(), Events: events,
				Error: &errorBody{Code: aerr.Code, Status: aerr.Status, Message: aerr.Message},
			})
			out.Flush()
			return nil, nil
		}
	}
}

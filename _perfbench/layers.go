package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"archline/internal/faults"
	"archline/internal/fit"
	"archline/internal/machine"
	"archline/internal/microbench"
	"archline/internal/model"
	"archline/internal/obs"
	"archline/internal/registry"
	"archline/internal/scenario"
	"archline/internal/server"
	"archline/internal/sim"
	"archline/internal/stats"
)

// loopbackShare is the part of a traced run spent driving the daemon
// over loopback; the rest replays the workload in process.
const loopbackShare = 0.4

// maxReplay bounds how many workload operations the in-process replay
// traces, which bounds the in-memory span log.
const maxReplay = 6000

// layerNames are the layers this package times from outside, each call
// under a layer.<name> span: strict body decode, registry reads and
// writes, the model kernel, the scenario engine, response encode, gzip.
var layerNames = []string{"decode", "registry", "kernel", "scenario", "encode", "compress"}

// uncoveredLayers is the server code between those public functions,
// which the layer sum does not time.
var uncoveredLayers = []string{
	"middleware: request id, http span, agg metrics, breaker, deadline",
	"response cache: canonical key, LRU, singleflight",
	"response write",
	"fit submit: validation and jobs.Submit",
	"stream NDJSON encode: server-internal, estimated apart as server.encode_ns_per_point",
}

// hitRatioRequests is how many dashboard-mix requests the cache hit
// ratio is read after: fixed, so the figure does not move with the run's
// length.
const hitRatioRequests = 4000

// compressLevels are the gzip levels of the compression table.
var compressLevels = []struct {
	name  string
	level int
}{
	{"default", gzip.DefaultCompression},
	{"best_speed", gzip.BestSpeed},
	{"huffman_only", gzip.HuffmanOnly},
}

// kernelSink keeps timed kernel builds live.
var kernelSink model.Kernel

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// inproc is an in-process server and its handler.
type inproc struct {
	srv *server.Server
	h   http.Handler
}

// newInproc builds a server as archlined does — registry in dir,
// structured log on — minus the listener.
func newInproc(dir string) *inproc {
	s := server.New(server.Config{DataDir: dir, LogWriter: io.Discard})
	return &inproc{srv: s, h: s.Handler()}
}

// serve runs one request through the handler into a ResponseRecorder
// and returns the handler's wall time. gz negotiates gzip as a stock Go
// client does.
func (p *inproc) serve(ctx context.Context, method, path string, body []byte, gz bool) (*httptest.ResponseRecorder, time.Duration) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body)).WithContext(ctx)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if gz {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	if id, ok := obs.RequestID(ctx); ok {
		req.Header.Set("X-Request-Id", id)
	}
	rec := httptest.NewRecorder()
	t0 := time.Now()
	p.h.ServeHTTP(rec, req)
	return rec, time.Since(t0)
}

// plainBody is a recorded body, inflated when the handler gzipped it.
func plainBody(rec *httptest.ResponseRecorder) ([]byte, error) {
	if rec.Header().Get("Content-Encoding") != "gzip" {
		return rec.Body.Bytes(), nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}

// layerRun accumulates one traced run's in-process measurements.
type layerRun struct {
	check  *tally
	tracer *obs.Tracer
	spans  bytes.Buffer // every finished span as NDJSON, written out at exit
	reqSeq int

	reg     *registry.Registry // in-memory registry the resolve timings read
	kernels map[string]model.Kernel
	pts     []model.Point
	gz      *gzip.Writer
	sink    float64 // keeps timed results live

	handlerUS        map[string][]float64
	replayUS         map[reqKey]float64 // the workload's replay, keyed as the loopback pass keys it
	replaySeq        int                // stream position of the operation being replayed
	hitUS, missUS    map[string][]float64
	untraced, traced time.Duration // paired handler totals of the decomposed requests

	streamGzipNS, streamIdentityNS, kernelNS, encodeNS []float64 // per stream, ns per point
	streamGzip, streamIdentity                         time.Duration
	identity                                           [][]byte // identity stream bodies for the compress table

	queueWaitMS, runMS           []float64
	suiteMS, retries, backoffMS  []float64
	compareUS, throttleUS, putMS []float64
	hitRatio                     float64
	getSerialNS, getParallelNS   float64
}

func newLayerRun(check *tally) (*layerRun, error) {
	reg, err := registry.OpenMemory(0)
	if err != nil {
		return nil, err
	}
	l := &layerRun{
		check: check, reg: reg, kernels: map[string]model.Kernel{}, gz: gzip.NewWriter(io.Discard),
		handlerUS: map[string][]float64{}, replayUS: map[reqKey]float64{}, hitUS: map[string][]float64{}, missUS: map[string][]float64{},
	}
	l.tracer = obs.NewTracer(&l.spans)
	return l, nil
}

// root opens the benchmark's root span for one replayed operation; the
// server's http span and any pipeline spans nest under it and share its
// request id.
func (l *layerRun) root(name string) (context.Context, *obs.Span) {
	l.reqSeq++
	ctx := obs.WithTracer(context.Background(), l.tracer)
	ctx = obs.WithRequestID(ctx, fmt.Sprintf("bench-%06d", l.reqSeq))
	return obs.Start(ctx, "bench."+name)
}

// layer times one call into a layer's public functions under a
// layer.<name> span.
func (l *layerRun) layer(ctx context.Context, name string, f func()) time.Duration {
	_, span := obs.Start(ctx, "layer."+name)
	defer span.End()
	t0 := time.Now()
	f()
	return time.Since(t0)
}

func (l *layerRun) kernel(key string, p model.Params) model.Kernel {
	k, ok := l.kernels[key]
	if !ok {
		k = model.NewKernel(p)
		l.kernels[key] = k
	}
	return k
}

// answer checks a recorded 200 answer with the op's verifier.
func (l *layerRun) answer(rec *httptest.ResponseRecorder, sp *spec) ([]byte, error) {
	body, err := plainBody(rec)
	if err == nil && rec.Code != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", rec.Code, body)
	}
	if err == nil {
		err = verify(sp, body)
	}
	l.check.note(sp.op, err)
	return body, err
}

func decodeStrict(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// Request mirrors for the decode layer; the grid fields carry no JSON
// tags, as in the server.
type (
	platformRef struct {
		ID     string          `json:"platform_id,omitempty"`
		Custom json.RawMessage `json:"platform,omitempty"`
	}
	gridReq struct {
		IMin, IMax float64
		Points     int
	}
	queryReq struct {
		platformRef
		Precision string   `json:"precision,omitempty"`
		WFlops    *float64 `json:"w_flops,omitempty"`
		QBytes    *float64 `json:"q_bytes,omitempty"`
		Intensity *float64 `json:"intensity,omitempty"`
	}
	batchReq struct {
		Items []queryReq `json:"items"`
	}
	compareReq struct {
		A platformRef `json:"a"`
		B platformRef `json:"b"`
		gridReq
	}
	whatifReq struct {
		Kind      string      `json:"kind"`
		Platform  platformRef `json:"platform,omitempty"`
		Big       platformRef `json:"big,omitempty"`
		Small     platformRef `json:"small,omitempty"`
		Fractions []float64   `json:"fractions,omitempty"`
		BudgetW   float64     `json:"budget_w,omitempty"`
		Intensity float64     `json:"intensity,omitempty"`
		gridReq
	}
	streamReq struct {
		platformRef
		Precision string `json:"precision,omitempty"`
		gridReq
		ChunkPoints int `json:"chunk_points,omitempty"`
	}
)

func (l *layerRun) decode(ctx context.Context, body []byte, dst any) time.Duration {
	return l.layer(ctx, "decode", func() {
		if err := decodeStrict(body, dst); err != nil {
			l.check.note("decode", err)
		}
	})
}

func (l *layerRun) resolve(ctx context.Context, reg *registry.Registry, ids []string) time.Duration {
	return l.layer(ctx, "registry", func() {
		for _, id := range ids {
			if _, err := reg.Get(id); err != nil {
				l.check.note("registry get", err)
			}
		}
	})
}

// encode re-marshals a decoded answer: the server's encode of the same
// response.
func (l *layerRun) encode(ctx context.Context, body []byte, v any) {
	if err := json.Unmarshal(body, v); err != nil {
		l.check.note("encode", err)
		return
	}
	l.layer(ctx, "encode", func() {
		b, err := json.Marshal(v)
		if err != nil {
			l.check.note("encode", err)
		}
		l.sink += float64(len(b))
	})
}

// request replays one read request: untraced on u for its handler time
// and cache outcome, then — when decompose is set — traced on t, and
// its layers one by one on the same input.
func (l *layerRun) request(u, t *inproc, sp *spec, decompose bool) {
	evals := u.srv.ModelEvals()
	rec, d := u.serve(context.Background(), sp.method, sp.path, sp.body, true)
	misses := int(u.srv.ModelEvals() - evals)
	body, err := l.answer(rec, sp)
	l.handlerUS[sp.op] = append(l.handlerUS[sp.op], us(d))
	if err != nil || !decompose {
		return
	}
	l.replayUS[reqKey{l.replaySeq, sp.op}] = us(d)
	ctx, span := l.root(sp.op)
	defer span.End()
	_, dt := t.serve(ctx, sp.method, sp.path, sp.body, true)
	l.untraced += d
	l.traced += dt
	l.decompose(ctx, sp, misses, body, rec.Header().Get("Content-Encoding") == "gzip")
}

// decompose times a read request's layers from outside: strict decode
// and registry resolve always; kernel or scenario evaluation and the
// response encode only for cache misses, as the server does; and gzip
// whenever the server compressed the answer.
func (l *layerRun) decompose(ctx context.Context, sp *spec, misses int, body []byte, gzipped bool) {
	switch sp.op {
	case opQuery, opBatch:
		if sp.op == opQuery {
			l.decode(ctx, sp.body, &queryReq{})
		} else {
			l.decode(ctx, sp.body, &batchReq{})
		}
		l.resolve(ctx, l.reg, sp.plats)
		if misses > 0 {
			l.layer(ctx, "kernel", func() {
				for i := 0; i < misses && i < len(sp.plats); i++ {
					id, iv := sp.plats[i], sp.intensities[i]
					k := l.kernel(id+"|single", builtinByID[id].Single)
					l.sink += k.FlopRateAt(iv) + k.FlopsPerJouleAt(iv) + k.AvgPowerAt(iv) +
						k.ThrottleFactor(iv) + float64(k.RegimeAt(iv))
				}
			})
		}
		if sp.op == opQuery {
			if misses > 0 {
				l.encode(ctx, body, &queryResp{})
			}
			break
		}
		var b batchResp
		if err := json.Unmarshal(body, &b); err != nil {
			l.check.note("encode", err)
			break
		}
		items := make([]queryResp, min(misses, len(b.Results)))
		for i := range items {
			if err := json.Unmarshal(b.Results[i], &items[i]); err != nil {
				l.check.note("encode", err)
			}
		}
		l.layer(ctx, "encode", func() {
			for i := range items {
				if _, err := json.Marshal(&items[i]); err != nil {
					l.check.note("encode", err)
				}
			}
			if _, err := json.Marshal(&b); err != nil {
				l.check.note("encode", err)
			}
		})
	case opRoofline:
		id := sp.plats[0]
		l.rooflineLayers(ctx, l.reg, id, builtinByID[id].Single, id+"|single", sp.path, sp.points, misses > 0, body)
	case opCompare:
		l.decode(ctx, sp.body, &compareReq{})
		l.resolve(ctx, l.reg, sp.plats)
		if misses > 0 {
			a, b := builtinByID[sp.plats[0]], builtinByID[sp.plats[1]]
			l.layer(ctx, "scenario", func() {
				bc, err := scenario.CompareBlocks(a.Name, a.Single, b.Name, b.Single, defaultIMin, defaultIMax, sp.points)
				if err != nil {
					l.check.note("scenario", err)
					return
				}
				l.sink += bc.MaxAggSpeedup
			})
			l.encode(ctx, body, &compareResp{})
		}
	case opWhatIf:
		l.decode(ctx, sp.body, &whatifReq{})
		l.resolve(ctx, l.reg, sp.plats)
		if misses > 0 {
			l.layer(ctx, "scenario", func() { l.sink += l.throttleSweep(builtinByID[sp.plats[0]].Single) })
			l.encode(ctx, body, &whatifResp{})
		}
	case opPlatforms:
		if misses > 0 {
			l.layer(ctx, "registry", func() {
				for _, e := range l.reg.List() {
					l.sink += e.Platform.Single.PeakFlopsPerJoule().FlopsPerJoule() + e.Platform.ConstantPowerShare()
				}
			})
			l.encode(ctx, body, &platformsResp{})
		}
	}
	if gzipped {
		l.compress(ctx, body)
	}
}

// compress gzips a buffered answer at the server's level.
func (l *layerRun) compress(ctx context.Context, body []byte) {
	l.layer(ctx, "compress", func() {
		l.gz.Reset(io.Discard)
		// Writes to io.Discard cannot fail.
		_, _ = l.gz.Write(body)
		_ = l.gz.Close()
	})
}

// throttleSweep is the what-if throttle computation on the default grid
// and cap schedule.
func (l *layerRun) throttleSweep(p model.Params) float64 {
	curves, err := scenario.ThrottleSweep(p, defaultFracs, model.LogSpace(defaultIMin, defaultIMax, defaultPoints))
	if err != nil {
		l.check.note("scenario", err)
		return 0
	}
	sum := 0.0
	for _, c := range curves {
		r, err := scenario.PowerReduction(p, c.Frac)
		if err != nil {
			l.check.note("scenario", err)
		}
		sum += r + float64(len(c.Points))
	}
	return sum
}

// rooflineLayers times a roofline request's layers on the platform's
// constants p; kernelKey names a cached kernel, or "" to build one (a
// freshly uploaded version, as in the server).
func (l *layerRun) rooflineLayers(ctx context.Context, reg *registry.Registry, id string, p model.Params,
	kernelKey, path string, points int, miss bool, body []byte) {
	l.layer(ctx, "decode", func() {
		u, err := url.Parse(path)
		if err == nil {
			_, err = strconv.Atoi(u.Query().Get("points"))
		}
		if err != nil {
			l.check.note("decode", err)
		}
	})
	l.resolve(ctx, reg, []string{id})
	if !miss {
		return
	}
	l.layer(ctx, "kernel", func() {
		var k model.Kernel
		if kernelKey == "" {
			k = model.NewKernel(p)
		} else {
			k = l.kernel(kernelKey, p)
		}
		l.sink += p.TimeBalance().Ratio() + p.EnergyBalance().Ratio() + p.TimeBalancePlus().Ratio() +
			p.TimeBalanceMinus().Ratio() + p.PeakAvgPower().Watts() + p.PeakFlopsPerJoule().FlopsPerJoule()
		for i := 0; i < points; i++ {
			l.sink += k.PointAt(gridIntensity(defaultIMin, defaultIMax, i, points)).FlopsPerSec
		}
	})
	l.encode(ctx, body, &rooflineResp{})
}

// stream replays one sweep stream on u, identity and gzip (the stream
// layer metrics), times the kernel sweep alone, and — when decompose is
// set — replays the gzip request traced on t and times its layers.
func (l *layerRun) stream(u, t *inproc, sp *spec, decompose bool) {
	recI, dI := u.serve(context.Background(), sp.method, sp.path, sp.body, false)
	ident, err := l.answer(recI, sp)
	if err != nil {
		return
	}
	recG, dG := u.serve(context.Background(), sp.method, sp.path, sp.body, true)
	if _, err := l.answer(recG, sp); err != nil {
		return
	}
	n := float64(sp.points)
	kd := l.kernelSweep(sp)
	l.handlerUS[opStream] = append(l.handlerUS[opStream], us(dG))
	l.streamIdentityNS = append(l.streamIdentityNS, float64(dI)/n)
	l.streamGzipNS = append(l.streamGzipNS, float64(dG)/n)
	l.kernelNS = append(l.kernelNS, float64(kd)/n)
	l.encodeNS = append(l.encodeNS, float64(dI-kd)/n)
	l.streamIdentity += dI
	l.streamGzip += dG
	if len(l.identity) < 2 {
		l.identity = append(l.identity, bytes.Clone(ident))
	}
	if !decompose {
		return
	}
	l.replayUS[reqKey{l.replaySeq, opStream}] = us(dG)
	ctx, span := l.root(opStream)
	defer span.End()
	_, dt := t.serve(ctx, sp.method, sp.path, sp.body, true)
	l.untraced += dG
	l.traced += dt
	l.decode(ctx, sp.body, &streamReq{})
	l.resolve(ctx, l.reg, sp.plats)
	l.layer(ctx, "kernel", func() { l.kernelSweep(sp) })
	l.layer(ctx, "compress", func() { l.sink += float64(gzipLines(l.gz, ident)) })
	// The NDJSON encoder is internal to the server, with no public
	// function to time: it stays out of the layer sum.
}

// kernelSweep evaluates a stream's grid chunk by chunk with
// Kernel.AppendLogSpace, as the stream handler does.
func (l *layerRun) kernelSweep(sp *spec) time.Duration {
	p, err := params(sp.plats[0], sp.precision)
	if err != nil {
		l.check.note("kernel", err)
		return 0
	}
	t0 := time.Now()
	k := l.kernel(sp.plats[0]+"|"+sp.precision, p)
	l0, l1 := math.Log(defaultIMin), math.Log(defaultIMax)
	for start := 0; start < sp.points; start += sp.chunk {
		l.pts = k.AppendLogSpace(l.pts[:0], l0, l1, start, min(start+sp.chunk, sp.points), sp.points)
		l.sink += l.pts[0].FlopsPerSec
	}
	return time.Since(t0)
}

type countWriter struct{ n int }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

// gzipLines compresses an NDJSON body as the stream handler does — one
// Flush per line — and returns the compressed size.
func gzipLines(zw *gzip.Writer, body []byte) int {
	var cw countWriter
	zw.Reset(&cw)
	for len(body) > 0 {
		i := bytes.IndexByte(body, '\n') + 1
		if i == 0 {
			i = len(body)
		}
		// Writes to a countWriter cannot fail.
		_, _ = zw.Write(body[:i])
		_ = zw.Flush()
		body = body[i:]
	}
	_ = zw.Close()
	return cw.n
}

// cycle replays one refit cycle in process: submit on u and poll the job
// to its end (its snapshot gives queue wait and run time), upload the
// fitted constants and read the new version's roofline on u — and, when
// decompose is set, the upload and roofline again traced on t with
// their layers timed.
func (l *layerRun) cycle(u, t *inproc, putReg *registry.Registry, c cycle, decompose bool) {
	plat := builtinByID[c.platform]
	rec, d := u.serve(context.Background(), http.MethodPost, "/v1/fit", c.fitBody(), true)
	l.handlerUS[opFitSubmit] = append(l.handlerUS[opFitSubmit], us(d))
	job, err := followJob(u, rec)
	if err == nil {
		err = checkJob(plat, job)
	}
	l.check.note(opFitSubmit, err)
	if err != nil {
		return
	}
	l.queueWaitMS = append(l.queueWaitMS, ms(job.Started.Sub(job.Created)))
	l.runMS = append(l.runMS, ms(job.Ended.Sub(*job.Started)))
	id := "refit-" + c.platform
	up, err := uploadBody(plat, id, job.Result.Fit)
	var want *machine.Platform
	if err == nil {
		want, err = machine.FromJSON(bytes.NewReader(up))
	}
	if err != nil {
		l.check.note(opUpload, err)
		return
	}
	recU, du := u.serve(context.Background(), http.MethodPost, "/v1/platforms", up, true)
	if recU.Code != http.StatusOK && recU.Code != http.StatusCreated {
		err = fmt.Errorf("status %d: %.200s", recU.Code, recU.Body.Bytes())
	}
	l.check.note(opUpload, err)
	if err != nil {
		return
	}
	l.handlerUS[opUpload] = append(l.handlerUS[opUpload], us(du))
	path := fmt.Sprintf("/v1/platforms/%s/roofline?points=%d", id, refitRooflinePoints)
	evals := u.srv.ModelEvals()
	recR, dr := u.serve(context.Background(), http.MethodGet, path, nil, true)
	miss := u.srv.ModelEvals() > evals
	body, err := plainBody(recR)
	if err == nil {
		err = verifyRoofline(body, id, want.Single, "single", refitRooflinePoints)
	}
	l.check.note(opRoofline, err)
	if err != nil {
		return
	}
	l.handlerUS[opRoofline] = append(l.handlerUS[opRoofline], us(dr))
	if !decompose {
		return
	}
	l.replayUS[reqKey{l.replaySeq, opFitSubmit}] = us(d)
	l.replayUS[reqKey{l.replaySeq, opUpload}] = us(du)
	l.replayUS[reqKey{l.replaySeq, opRoofline}] = us(dr)
	ctx, span := l.root("refit")
	defer span.End()
	_, tu := t.serve(ctx, http.MethodPost, "/v1/platforms", up, true)
	_, tr := t.serve(ctx, http.MethodGet, path, nil, true)
	l.untraced += du + dr
	l.traced += tu + tr
	l.layer(ctx, "decode", func() {
		if _, err := machine.FromJSON(bytes.NewReader(up)); err != nil {
			l.check.note("decode", err)
		}
	})
	l.layer(ctx, "registry", func() {
		if _, _, err := putReg.Put(want); err != nil {
			l.check.note("registry put", err)
		}
	})
	var ack struct {
		ID      string `json:"id"`
		Version uint64 `json:"version"`
		ETag    string `json:"etag"`
		Outcome string `json:"outcome"`
	}
	l.encode(ctx, recU.Body.Bytes(), &ack)
	l.rooflineLayers(ctx, putReg, id, want.Single, "", path, refitRooflinePoints, miss, body)
	if recR.Header().Get("Content-Encoding") == "gzip" {
		l.compress(ctx, body)
	}
}

// followJob polls a submitted job through the handler until it ends.
func followJob(u *inproc, rec *httptest.ResponseRecorder) (*jobInfo, error) {
	if rec.Code != http.StatusAccepted {
		return nil, fmt.Errorf("fit submit: status %d: %.200s", rec.Code, rec.Body.Bytes())
	}
	var job jobInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
		return nil, fmt.Errorf("fit submit answer: %w", err)
	}
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		r, _ := u.serve(context.Background(), http.MethodGet, "/v1/jobs/"+job.ID, nil, false)
		job = jobInfo{}
		if err := json.Unmarshal(r.Body.Bytes(), &job); err != nil {
			return nil, fmt.Errorf("job answer: %w", err)
		}
		switch job.State {
		case "done", "failed", "canceled":
			return &job, nil
		}
	}
	return nil, fmt.Errorf("job %s still %s after 60s", job.ID, job.State)
}

// pipeline runs one paper-profile measure→fit in process through the
// public microbench and fit entry points, with the retry backoff
// recorded through RobustConfig.Sleep as waiting time instead of slept.
func (l *layerRun) pipeline(c cycle) {
	plat := builtinByID[c.platform]
	prof, err := faults.ByName("paper")
	if err != nil {
		l.check.note("pipeline", err)
		return
	}
	ctx, span := l.root("pipeline")
	defer span.End()
	var waited time.Duration
	t0 := time.Now()
	res, rs, err := microbench.RunRobustContext(ctx, plat, microbench.DefaultConfig(),
		sim.Options{Seed: c.seed, Sanitize: true, Faults: faults.New(prof, c.faultSeed)},
		microbench.RobustConfig{Sleep: func(d time.Duration) { waited += d }})
	suite := time.Since(t0)
	if err == nil {
		var pf *fit.PlatformFit
		if pf, err = fit.PlatformContext(ctx, res, fit.Options{Seed: c.seed}); err == nil {
			p := pf.Params
			err = checkFit(plat, pf.Grade.String(), p.EpsFlop.JoulesPerFlop(), p.EpsMem.JoulesPerByte(), p.Pi1.Watts())
		}
	}
	l.check.note("pipeline", err)
	if err != nil {
		return
	}
	l.suiteMS = append(l.suiteMS, ms(suite))
	l.retries = append(l.retries, float64(rs.Retries))
	l.backoffMS = append(l.backoffMS, ms(waited))
}

// probes measures what the workload's own stream does not reach, on
// inputs from the other workloads' generators under the same seed, so
// every traced run reports every layer; and the fixed layer probes.
func (l *layerRun) probes(u, t *inproc, putReg *registry.Registry, cfg config) error {
	{
		// Every read op, even on the dashboard, whose replay a short run
		// may cut before each op has come up.
		g := newDashGen(cfg.seed)
		have := map[string]int{}
		for i := 0; i < 4000 && !enough(have, 4); i++ {
			sp := g.next()
			if have[sp.op] < 4 {
				have[sp.op]++
				l.request(u, t, sp, false)
			}
		}
	}
	if cfg.workload != wSweep {
		g := newSweepGen(cfg.seed)
		for i := 0; i < 2; i++ {
			l.stream(u, t, g.next(), false)
		}
	}
	if cfg.workload != wRefit {
		c := newRefitGen(cfg.seed).next()
		l.cycle(u, t, putReg, c, false)
		l.pipeline(c)
	}
	l.cacheProbe(filepath.Join(cfg.runDir, "cache"), cfg.seed)
	if err := l.hitRatioProbe(filepath.Join(cfg.runDir, "hit-ratio"), cfg.seed); err != nil {
		return err
	}
	l.scenarioProbe(cfg.seed)
	if err := l.invalidationProbe(filepath.Join(cfg.runDir, "invalidate")); err != nil {
		return err
	}
	return l.registryProbe(filepath.Join(cfg.runDir, "put"), cfg.seed)
}

// enough reports whether every read op has n samples (the listing has a
// single cache key, so one).
func enough(have map[string]int, n int) bool {
	for _, op := range readOps {
		need := n
		if op == opPlatforms {
			need = 1
		}
		if have[op] < need {
			return false
		}
	}
	return true
}

// cacheProbe times each read op's miss and hit on a fresh server: the
// first request for a key computes and fills the cache, the same request
// again is served from it.
func (l *layerRun) cacheProbe(dir string, seed uint64) {
	f := newInproc(dir)
	g := newDashGen(seed)
	seen := map[string]bool{}
	have := map[string]int{}
	for i := 0; i < 4000 && !enough(have, 8); i++ {
		sp := g.next()
		key := sp.path + "\x00" + string(sp.body)
		if seen[key] || have[sp.op] >= 8 {
			continue
		}
		seen[key] = true
		evals := f.srv.ModelEvals()
		rec, miss := f.serve(context.Background(), sp.method, sp.path, sp.body, true)
		if f.srv.ModelEvals() == evals {
			continue // a batch whose items earlier queries already cached
		}
		if _, err := l.answer(rec, sp); err != nil {
			continue
		}
		rec, hit := f.serve(context.Background(), sp.method, sp.path, sp.body, true)
		if _, err := l.answer(rec, sp); err != nil {
			continue
		}
		have[sp.op]++
		l.missUS[sp.op] = append(l.missUS[sp.op], us(miss))
		l.hitUS[sp.op] = append(l.hitUS[sp.op], us(hit))
	}
}

// scenarioProbe times the scenario engine on the dashboard's compare and
// what-if inputs, 20 calls per sample.
func (l *layerRun) scenarioProbe(seed uint64) {
	const reps = 20
	g := newDashGen(seed)
	for i := 0; i < 4000 && (len(l.compareUS) < 16 || len(l.throttleUS) < 16); i++ {
		sp := g.next()
		switch {
		case sp.op == opCompare && len(l.compareUS) < 16:
			a, b := builtinByID[sp.plats[0]], builtinByID[sp.plats[1]]
			t0 := time.Now()
			for r := 0; r < reps; r++ {
				bc, err := scenario.CompareBlocks(a.Name, a.Single, b.Name, b.Single, defaultIMin, defaultIMax, sp.points)
				if err != nil {
					l.check.note("scenario", err)
					return
				}
				l.sink += bc.MaxAggSpeedup
			}
			l.compareUS = append(l.compareUS, us(time.Since(t0))/reps)
		case sp.op == opWhatIf && len(l.throttleUS) < 16:
			p := builtinByID[sp.plats[0]].Single
			t0 := time.Now()
			for r := 0; r < reps; r++ {
				l.sink += l.throttleSweep(p)
			}
			l.throttleUS = append(l.throttleUS, us(time.Since(t0))/reps)
		}
	}
}

// hitRatioProbe reads the response cache's hit ratio from a fresh
// server's /metrics after the first hitRatioRequests requests of the
// seeded dashboard mix, every answer checked. It runs on every workload:
// the sweep stream never looks the cache up, and refit's rooflines all
// miss on new versions, so their own traffic has no ratio to report.
func (l *layerRun) hitRatioProbe(dir string, seed uint64) error {
	f := newInproc(dir)
	g := newDashGen(seed)
	for i := 0; i < hitRatioRequests; i++ {
		sp := g.next()
		rec, _ := f.serve(context.Background(), sp.method, sp.path, sp.body, true)
		_, _ = l.answer(rec, sp)
	}
	rec, _ := f.serve(context.Background(), http.MethodGet, "/metrics", nil, false)
	const name = "archlined_cache_hit_ratio"
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			r, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			l.hitRatio = r
			return err
		}
	}
	return fmt.Errorf("/metrics (status %d) has no %s sample", rec.Code, name)
}

// invalidationProbe checks that one re-upload evicts exactly the cached
// responses keyed to the old version: k distinct rooflines of an uploaded platform and of a built-in are cached, the
// platform is re-uploaded with new constants, and all are asked again.
// It is a check, not a metric: the count is set here, and the server
// does not report how many entries its sweep removed.
func (l *layerRun) invalidationProbe(dir string) error {
	const k = 8
	f := newInproc(dir)
	base := builtinByID[string(machine.GTXTitan)]
	fp := truthFit(base)
	upload := func() error {
		body, err := uploadBody(base, "invalidate-probe", fp)
		if err != nil {
			return err
		}
		rec, _ := f.serve(context.Background(), http.MethodPost, "/v1/platforms", body, false)
		if rec.Code != http.StatusOK && rec.Code != http.StatusCreated {
			return fmt.Errorf("invalidation probe upload: status %d: %.200s", rec.Code, rec.Body.Bytes())
		}
		return nil
	}
	reads := func() {
		for i := 0; i < k; i++ {
			for _, id := range []string{"invalidate-probe", string(base.ID)} {
				f.serve(context.Background(), http.MethodGet,
					fmt.Sprintf("/v1/platforms/%s/roofline?points=%d", id, 17+i), nil, false)
			}
		}
	}
	if err := upload(); err != nil {
		return err
	}
	reads()
	fp.Pi1W *= 1.05
	if err := upload(); err != nil {
		return err
	}
	evals := f.srv.ModelEvals()
	reads()
	var err error
	if recomputed := int(f.srv.ModelEvals() - evals); recomputed != k {
		err = fmt.Errorf("re-upload recomputed %d cached responses, want exactly the %d keyed to the old version", recomputed, k)
	}
	l.check.note("invalidation", err)
	return nil
}

// registryProbe times Registry.Get from one goroutine and from nproc at
// once, so lock contention shows, and Put with its fsyncs on a registry
// opened on disk.
func (l *layerRun) registryProbe(dir string, seed uint64) error {
	const gets = 200000
	g := newDashGen(seed)
	ids := make([]string, 1024)
	for i := range ids {
		ids[i] = g.platform()
	}
	get := func() {
		for i := 0; i < gets; i++ {
			// Every id is a built-in, which always resolves.
			_, _ = l.reg.Get(ids[i%len(ids)])
		}
	}
	t0 := time.Now()
	get()
	l.getSerialNS = float64(time.Since(t0)) / gets
	var wg sync.WaitGroup
	t0 = time.Now()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			get()
		}()
	}
	wg.Wait()
	l.getParallelNS = float64(time.Since(t0)) / gets
	reg, err := registry.Open(dir, 0)
	if err != nil {
		return err
	}
	base := builtinByID[string(machine.GTXTitan)]
	for i := 0; i < 8; i++ {
		fp := truthFit(base)
		fp.Pi1W *= 1 + 0.001*float64(i+1)
		body, err := uploadBody(base, "put-probe", fp)
		if err != nil {
			return err
		}
		p, err := machine.FromJSON(bytes.NewReader(body))
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, _, err := reg.Put(p); err != nil {
			return fmt.Errorf("registry put: %w", err)
		}
		l.putMS = append(l.putMS, ms(time.Since(t0)))
	}
	return nil
}

// kernelBuildNS times model.NewKernel over every built-in.
func kernelBuildNS() float64 {
	const reps = 2000
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, p := range builtins {
			kernelSink = model.NewKernel(p.Single)
		}
	}
	return float64(time.Since(t0)) / float64(reps*len(builtins))
}

// replay runs the workload's own seeded stream in process until the
// deadline (at least one operation, at most maxReplay).
func (l *layerRun) replay(u, t *inproc, putReg *registry.Registry, cfg config, deadline time.Time) {
	more := func(n int) bool { return n == 0 || (n < maxReplay && time.Now().Before(deadline)) }
	switch cfg.workload {
	case wDashboard:
		g := newDashGen(cfg.seed)
		for n := 0; more(n); n++ {
			l.replaySeq = n
			l.request(u, t, g.next(), true)
		}
	case wSweep:
		g := newSweepGen(cfg.seed)
		for n := 0; more(n); n++ {
			l.replaySeq = n
			l.stream(u, t, g.next(), true)
		}
	case wRefit:
		g := newRefitGen(cfg.seed)
		for n := 0; more(n); n++ {
			l.replaySeq = n
			c := g.next()
			l.cycle(u, t, putReg, c, true)
			l.pipeline(c)
		}
	}
}

// spanRec is one exported obs span.
type spanRec struct {
	Span   uint64    `json:"span"`
	Parent uint64    `json:"parent"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	DurMS  float64   `json:"dur_ms"`
}

// selfTimes sums each span name's self time — its duration minus the
// union of its children's intervals, clipped to it — and counts its
// spans.
func selfTimes(ndjson []byte) (map[string]time.Duration, map[string]int, error) {
	type interval struct{ s, e time.Time }
	var recs []spanRec
	dec := json.NewDecoder(bytes.NewReader(ndjson))
	for dec.More() {
		var r spanRec
		if err := dec.Decode(&r); err != nil {
			return nil, nil, fmt.Errorf("span log: %w", err)
		}
		recs = append(recs, r)
	}
	span := func(r spanRec) interval {
		return interval{r.Start, r.Start.Add(time.Duration(r.DurMS * float64(time.Millisecond)))}
	}
	kids := map[uint64][]interval{}
	for _, r := range recs {
		if r.Parent != 0 {
			kids[r.Parent] = append(kids[r.Parent], span(r))
		}
	}
	self := map[string]time.Duration{}
	count := map[string]int{}
	for _, r := range recs {
		p := span(r)
		cs := kids[r.Span]
		sort.Slice(cs, func(i, j int) bool { return cs[i].s.Before(cs[j].s) })
		covered, cur := time.Duration(0), p.s
		for _, c := range cs {
			s, e := c.s, c.e
			if s.Before(cur) {
				s = cur
			}
			if e.After(p.e) {
				e = p.e
			}
			if e.After(s) {
				covered += e.Sub(s)
				cur = e
			}
		}
		self[r.Name] += p.e.Sub(p.s) - covered
		count[r.Name]++
	}
	return self, count, nil
}

// perSpan is a span name's mean self time in unit.
func perSpan(self map[string]time.Duration, count map[string]int, name string, unit time.Duration) float64 {
	if count[name] == 0 {
		return math.NaN()
	}
	return float64(self[name]) / float64(unit) / float64(count[name])
}

// runLayers is the traced run: a loopback pass over loopbackShare of the
// run's seconds (wire latency, client CPU share, daemon RSS), then
// the in-process replay and probes for the rest.
func runLayers(cfg config, check *tally) (metrics, []string, error) {
	total := time.Duration(cfg.seconds) * time.Second
	loop := time.Duration(float64(total) * loopbackShare)
	d, _, err := bootWarm(cfg, 0)
	if err != nil {
		return nil, nil, err
	}
	defer d.stop()
	self0 := selfCPU()
	ld, err := drive(cfg, d.base, loop, d.cpu, check)
	if err != nil {
		return nil, nil, err
	}
	clientCPU := selfCPU() - self0
	rss, err := peakRSSMiB(d.pid())
	if err != nil {
		return nil, nil, err
	}
	if err := d.stop(); err != nil {
		return nil, nil, err
	}
	deadline := time.Now().Add(total - loop)

	l, err := newLayerRun(check)
	if err != nil {
		return nil, nil, err
	}
	u := newInproc(filepath.Join(cfg.runDir, "inproc-u"))
	t := newInproc(filepath.Join(cfg.runDir, "inproc-t"))
	putReg, err := registry.Open(filepath.Join(cfg.runDir, "inproc-put"), 0)
	if err != nil {
		return nil, nil, err
	}
	for _, sp := range warmupSpecs() {
		for _, p := range []*inproc{u, t} {
			rec, _ := p.serve(context.Background(), sp.method, sp.path, sp.body, true)
			if _, err := plainBody(rec); err != nil || rec.Code != http.StatusOK {
				return nil, nil, fmt.Errorf("in-process warm-up %s %s: status %d", sp.method, sp.path, rec.Code)
			}
		}
	}
	if err := l.probes(u, t, putReg, cfg); err != nil {
		return nil, nil, err
	}
	l.replay(u, t, putReg, cfg, deadline)

	m := metrics{}
	for _, op := range allOps {
		m.set("server.handler_us."+op, stats.Median(l.handlerUS[op]), "us")
	}
	for _, op := range readOps {
		m.set("server.cache.hit_us."+op, stats.Median(l.hitUS[op]), "us")
		m.set("server.cache.miss_us."+op, stats.Median(l.missUS[op]), "us")
	}
	// The same generated requests went over loopback and through the
	// handler in process: the median of their differences is the network
	// and client share of a request.
	var overhead []float64
	for k, h := range l.replayUS {
		if loop, ok := ld.reqLat[k]; ok {
			overhead = append(overhead, 1000*loop-h)
		}
	}
	m.set("net.overhead_us", stats.Median(overhead), "us")
	m.set("server.cache.hit_ratio", l.hitRatio, "ratio")
	m.set("server.stream.gzip_ns_per_point", stats.Median(l.streamGzipNS), "ns")
	m.set("server.stream.identity_ns_per_point", stats.Median(l.streamIdentityNS), "ns")
	m.set("server.compress.share", 1-float64(l.streamIdentity)/float64(l.streamGzip), "ratio")
	m.set("server.encode_ns_per_point", stats.Median(l.encodeNS), "ns")
	m.set("model.kernel.ns_per_point", stats.Median(l.kernelNS), "ns")
	m.set("model.kernel.build_ns", kernelBuildNS(), "ns")
	m.set("scenario.compare_blocks_us", stats.Median(l.compareUS), "us")
	m.set("scenario.throttle_sweep_us", stats.Median(l.throttleUS), "us")
	m.set("registry.get_ns.serial", l.getSerialNS, "ns")
	m.set("registry.get_ns.nproc", l.getParallelNS, "ns")
	m.set("registry.put_ms", stats.Median(l.putMS), "ms")
	m.set("jobs.queue_wait_ms", stats.Median(l.queueWaitMS), "ms")
	m.set("jobs.run_ms", stats.Median(l.runMS), "ms")
	m.set("microbench.suite_ms", stats.Median(l.suiteMS), "ms")
	m.set("microbench.retries", stats.Mean(l.retries), "count")
	m.set("microbench.backoff_wait_ms", stats.Mean(l.backoffMS), "ms")
	m.set("client.cpu_share", float64(clientCPU)/float64(clientCPU+ld.daemonCPU), "ratio")
	m.set("daemon_rss_peak_mb", rss, "MiB")
	m.set("obs.trace_overhead", float64(l.traced)/float64(l.untraced), "ratio")
	for _, lv := range compressLevels {
		zw, err := gzip.NewWriterLevel(io.Discard, lv.level)
		if err != nil {
			return nil, nil, err
		}
		var raw, packed int
		var el time.Duration
		for _, body := range l.identity {
			t0 := time.Now()
			packed += gzipLines(zw, body)
			el += time.Since(t0)
			raw += len(body)
		}
		m.set("server.compress.ns_per_byte."+lv.name, float64(el)/float64(raw), "ns")
		m.set("server.compress.ratio."+lv.name, float64(raw)/float64(packed), "ratio")
	}

	spans := l.spans.Bytes()
	self, count, err := selfTimes(spans)
	if err != nil {
		return nil, nil, err
	}
	m.set("sim.measure_us", perSpan(self, count, "sim.measure", time.Microsecond), "us")
	m.set("powermon.sanitize_us", perSpan(self, count, "powermon.sanitize", time.Microsecond), "us")
	m.set("fit.platform_ms", perSpan(self, count, "fit.platform", time.Millisecond), "ms")
	var covered time.Duration
	for _, name := range layerNames {
		v := self["layer."+name]
		covered += v
		m.set("layers.share."+name, float64(v)/float64(l.untraced), "ratio")
	}
	m.set("layers.coverage", float64(covered)/float64(l.untraced), "ratio")
	path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-%d.ndjson", cfg.workload, cfg.seed))
	if err := os.WriteFile(path, spans, 0o644); err != nil {
		return nil, nil, fmt.Errorf("writing the span log: %w", err)
	}
	return m, uncoveredLayers, nil
}

package server

import (
	"encoding/json"
	"math"
	"net/http"

	"archline/internal/model"
)

// Streaming sweep bounds. The buffered sweep endpoints cap at maxPoints
// because they must hold the whole response; the stream holds only one
// chunk, so its grid cap is generous.
const (
	streamMaxPoints    = 1 << 20
	defaultChunkPoints = 512
	maxChunkPoints     = 4096
	// streamPointBytes is about what a point adds to a stream: 199 bytes
	// on desktop-cpu, 202 on gtx-titan and xeon-phi.
	streamPointBytes = 200
)

// sweepStreamRequest asks for a roofline sweep delivered as NDJSON
// chunks: a platform, a precision, the intensity grid, and the chunk
// granularity.
type sweepStreamRequest struct {
	platformRef
	Precision string `json:"precision,omitempty"`
	sweepGrid
	// ChunkPoints is how many grid points each NDJSON chunk carries.
	// Zero takes defaultChunkPoints; the cap is maxChunkPoints.
	ChunkPoints int `json:"chunk_points,omitempty"`
}

// streamHeader is the first NDJSON line: the sweep's identity and shape,
// so a consumer can size progress bars before any points arrive.
type streamHeader struct {
	PlatformID  string  `json:"platform_id,omitempty"`
	Name        string  `json:"name"`
	Precision   string  `json:"precision"`
	IMin        float64 `json:"imin"`
	IMax        float64 `json:"imax"`
	Points      int     `json:"points"`
	ChunkPoints int     `json:"chunk_points"`
}

// streamChunk is one flushed slice of the sweep. The handler does not
// marshal this struct on the hot path — appendStreamChunk hand-rolls
// the identical bytes into a pooled buffer — but the type remains the
// schema of record: the encoder tests marshal it through encoding/json
// and byte-compare.
type streamChunk struct {
	Seq    int             `json:"seq"`
	Points []rooflinePoint `json:"points"`
}

// streamTrailer is the final NDJSON line. Done is true only when every
// chunk was delivered; a mid-stream failure (the status line is long
// gone by then) instead ends the stream with Error set and Done false.
type streamTrailer struct {
	Done   bool       `json:"done"`
	Chunks int        `json:"chunks"`
	Points int        `json:"points"`
	Error  *errorBody `json:"error,omitempty"`
}

// handleSweepStream serves POST /v1/sweep/stream: an arbitrarily large
// roofline sweep as newline-delimited JSON, flushed chunk by chunk so
// server memory is bounded whatever the grid size and clients can start
// consuming immediately. An identity stream holds one chunk. A gzip
// stream expected to span two segments (about 5,250 points) is
// deflated in segments from the header line's flush on: the writer
// holds each segmentBytes of lines until the segment fills and is
// deflated, with at most 2×GOMAXPROCS in flight (gzip.go). A smaller
// one goes out line by line until its first segmentBytes. The header
// line is always flushed before any point is computed. Responses are
// not cached — the stream is recomputed per request and counts as one
// model evaluation.
func (s *Server) handleSweepStream(w http.ResponseWriter, r *http.Request) (any, *apiError) {
	var req sweepStreamRequest
	if aerr := s.decodeBody(r, &req); aerr != nil {
		return nil, aerr
	}
	plat, _, aerr := s.resolvePlatform(req.platformRef)
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
	g := req.sweepGrid.orDefaults()
	if aerr := g.validate(streamMaxPoints); aerr != nil {
		return nil, aerr
	}
	chunk := req.ChunkPoints
	if chunk == 0 {
		chunk = defaultChunkPoints
	}
	if chunk < 1 || chunk > maxChunkPoints {
		return nil, errBadRequest("chunk_points must be in [1, %d], got %d", maxChunkPoints, chunk)
	}

	s.noteEval()
	out := startNDJSON(w, r, g.Points*streamPointBytes)
	defer out.Close()
	enc := json.NewEncoder(out)
	// Encode failures past this point mean the client went away; the
	// trailer protocol below is the only error channel left.
	_ = enc.Encode(streamHeader{
		PlatformID: string(plat.ID), Name: plat.Name, Precision: precision,
		IMin: g.IMin, IMax: g.IMax, Points: g.Points, ChunkPoints: chunk,
	})
	out.Flush()

	// The grid is generated on the fly (the LogSpace formula, never
	// materialized) and buffered one chunk at a time: the kernel
	// evaluates a chunk into a pooled point buffer and the hand-rolled
	// encoder renders it into a pooled line buffer, so the steady-state
	// loop allocates nothing regardless of the grid size.
	k := model.NewKernel(p)
	l0, l1 := math.Log(g.IMin), math.Log(g.IMax)
	ptsPtr := pointBufs.Get().(*[]model.Point)
	linePtr := lineBufs.Get().(*[]byte)
	defer func() {
		pointBufs.Put(ptsPtr)
		lineBufs.Put(linePtr)
	}()
	chunks := 0
	ctx := r.Context()
	for start := 0; start < g.Points; start += chunk {
		if err := ctx.Err(); err != nil {
			aerr := errTimeout()
			_ = enc.Encode(streamTrailer{Chunks: chunks, Points: start,
				Error: &errorBody{Code: aerr.Code, Status: aerr.Status, Message: aerr.Message}})
			out.Flush()
			return nil, nil
		}
		end := start + chunk
		if end > g.Points {
			end = g.Points
		}
		pts := k.AppendLogSpace((*ptsPtr)[:0], l0, l1, start, end, g.Points)
		line, ok := appendStreamChunk((*linePtr)[:0], chunks, pts)
		*linePtr = line[:0] // keep any growth for the next chunk
		if ok {
			// A failed write means the client went away — same silent
			// treatment the encoder errors get.
			_, _ = out.Write(line)
		}
		out.Flush()
		chunks++
	}
	_ = enc.Encode(streamTrailer{Done: true, Chunks: chunks, Points: g.Points})
	out.Flush()
	return nil, nil
}

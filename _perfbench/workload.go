package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"

	"archline/internal/loadgen"
	"archline/internal/machine"
	"archline/internal/stats"
)

// Workload names, as --workload takes them.
const (
	wDashboard = "dashboard"
	wSweep     = "sweep-stream"
	wRefit     = "refit"
)

// Operation names. The six read ops are archloadgen's; stream,
// fit_submit and upload belong to the sweep-stream and refit workloads.
const (
	opQuery     = loadgen.OpQuery
	opRoofline  = loadgen.OpRoofline
	opCompare   = loadgen.OpCompare
	opWhatIf    = loadgen.OpWhatIf
	opBatch     = loadgen.OpBatch
	opPlatforms = loadgen.OpPlatforms
	opStream    = "stream"
	opFitSubmit = "fit_submit"
	opUpload    = "upload"
)

// readOps are the dashboard's cacheable read operations.
var readOps = []string{opQuery, opBatch, opRoofline, opCompare, opWhatIf, opPlatforms}

// allOps have one server.handler_us metric each.
var allOps = []string{opQuery, opBatch, opRoofline, opCompare, opWhatIf, opPlatforms,
	opStream, opFitSubmit, opUpload}

// builtins is the Table I database in archloadgen's order: zipf rank 0
// is the first entry.
var builtins = machine.All()

var builtinByID = func() map[string]*machine.Platform {
	m := make(map[string]*machine.Platform, len(builtins))
	for _, p := range builtins {
		m[string(p.ID)] = p
	}
	return m
}()

// refitPool is what a refit cycle draws from, zipf-ranked in Table I
// order: the quirk-free built-ins whose paper-profile refit mostly lands
// inside the 5% acceptance bound. A cycle's seed and fault seed are one
// k in 1..refitSeeds; the pipeline is deterministic in them, and misses
// lists the k whose refit of that platform falls outside the bound, so
// the workload draws only seeds that must pass. A change that makes a
// drawn seed fail is a regression the run reports.
var refitPool = []struct {
	id     machine.ID
	misses []uint64
}{
	{machine.DesktopCPU, []uint64{5, 6, 9, 11, 12, 13, 14, 15, 17, 23, 32, 35, 40, 51, 52, 57, 59, 60}},
	{machine.GTX580, []uint64{26, 48}},
	{machine.GTX680, []uint64{21, 27}},
	{machine.GTXTitan, nil},
	{machine.XeonPhi, []uint64{1, 2, 5, 8, 12, 13, 15, 19, 20, 22, 23, 24, 25, 26, 27, 30, 31, 35, 36, 40,
		46, 48, 50, 52, 53, 54, 55, 56, 59, 60, 61, 63, 64}},
}

const refitSeeds = 64

// spec is one generated HTTP request plus what its verifier needs.
type spec struct {
	op     string
	method string
	path   string
	body   []byte

	plats       []string  // platform ids, in request order
	intensities []float64 // query and batch items, in order
	points      int       // roofline, compare and stream grid size
	precision   string    // stream precision
	chunk       int       // stream chunk_points
	sample      []int     // stream point indices checked bit for bit
}

func (sp *spec) post(path string, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		// Only maps of strings and numbers are marshalled here.
		panic("perfbench: marshal: " + err.Error())
	}
	sp.method, sp.path, sp.body = http.MethodPost, path, body
}

// zipf draws ranks 0..n-1 with P(k) proportional to 1/(k+1)^s by
// inverse CDF over the seeded stream, the table archloadgen uses.
type zipf []float64

func newZipf(n int, s float64) zipf {
	cum := make(zipf, n)
	total := 0.0
	for k := range cum {
		total += 1 / math.Pow(float64(k+1), s)
		cum[k] = total
	}
	for k := range cum {
		cum[k] /= total
	}
	return cum
}

func (z zipf) pick(rng *stats.Stream) int { return sort.SearchFloat64s(z, rng.Float64()) }

// intensityGrid and pointsGrid are archloadgen's quantized grids (64
// log-spaced intensities from 1/8 to 512 flop/byte; three sweep sizes),
// so repeated draws share response-cache slots.
var intensityGrid = func() []float64 {
	out := make([]float64, 64)
	for i := range out {
		out[i] = 0.125 * math.Pow(2, float64(i)*13.0/63.0)
	}
	return out
}()

var pointsGrid = []int{17, 33, 65}

// dashGen replays archloadgen's default read mix draw for draw, so a
// seed names the same request stream as `archloadgen -seed`.
type dashGen struct {
	rng  *stats.Stream
	zipf zipf
	ops  []string
	cum  []float64
}

func newDashGen(seed uint64) *dashGen {
	g := &dashGen{rng: stats.NewStream(seed, "loadgen"), zipf: newZipf(len(builtins), 1.1)}
	mix := loadgen.DefaultMix()
	names := make([]string, 0, len(mix))
	for op := range mix {
		names = append(names, op)
	}
	sort.Strings(names)
	total := 0.0
	for _, op := range names {
		if mix[op] <= 0 {
			continue
		}
		total += mix[op]
		g.ops = append(g.ops, op)
		g.cum = append(g.cum, total)
	}
	return g
}

func (g *dashGen) platform() string   { return string(builtins[g.zipf.pick(g.rng)].ID) }
func (g *dashGen) intensity() float64 { return intensityGrid[g.rng.Intn(len(intensityGrid))] }

func (g *dashGen) next() *spec {
	x := g.rng.Float64() * g.cum[len(g.cum)-1]
	op := g.ops[len(g.ops)-1]
	for i, c := range g.cum {
		if x < c {
			op = g.ops[i]
			break
		}
	}
	sp := &spec{op: op}
	switch op {
	case opQuery:
		id := g.platform()
		iv := g.intensity()
		sp.plats, sp.intensities = []string{id}, []float64{iv}
		sp.post("/v1/query", map[string]any{"platform_id": id, "intensity": iv})
	case opRoofline:
		sp.points = pointsGrid[g.rng.Intn(len(pointsGrid))]
		id := g.platform()
		sp.plats = []string{id}
		sp.method = http.MethodGet
		sp.path = "/v1/platforms/" + id + "/roofline?points=" + strconv.Itoa(sp.points)
	case opCompare:
		a := g.platform()
		b := g.platform()
		sp.points = pointsGrid[g.rng.Intn(len(pointsGrid))]
		sp.plats = []string{a, b}
		sp.post("/v1/compare", map[string]any{
			"a": map[string]any{"platform_id": a}, "b": map[string]any{"platform_id": b},
			"points": sp.points,
		})
	case opWhatIf:
		id := g.platform()
		sp.plats = []string{id}
		sp.post("/v1/whatif", map[string]any{"kind": "throttle", "platform": map[string]any{"platform_id": id}})
	case opBatch:
		n := 3 + g.rng.Intn(6)
		items := make([]map[string]any, n)
		for i := range items {
			id := g.platform()
			iv := g.intensity()
			sp.plats = append(sp.plats, id)
			sp.intensities = append(sp.intensities, iv)
			items[i] = map[string]any{"platform_id": id, "intensity": iv}
		}
		sp.post("/v1/batch", map[string]any{"items": items})
	case opPlatforms:
		sp.method, sp.path = http.MethodGet, "/v1/platforms"
	}
	return sp
}

// Stream shapes. Every grid is above the buffered endpoints' 4096-point
// cap, up to 2^16 points; chunk sizes span the server's 1..4096 range,
// because flush frequency drives both compress CPU and ratio.
var (
	streamPoints = []int{8192, 32768, 65536}
	streamChunks = []int{256, 512, 1024, 2048, 4096}
)

// streamSamples is how many seeded grid points per stream, besides the
// first and the last, are checked bit for bit against the reference.
const streamSamples = 8

// streamShape is one grid size and chunk size.
type streamShape struct{ points, chunk int }

type sweepGen struct {
	rng    *stats.Stream
	zipf   zipf
	shapes []streamShape // what is left of the current shuffled block
}

func newSweepGen(seed uint64) *sweepGen {
	return &sweepGen{rng: stats.NewStream(seed, "sweep-stream"), zipf: newZipf(len(builtins), 1.1)}
}

func (g *sweepGen) next() *spec {
	plat := builtins[g.zipf.pick(g.rng)]
	sp := &spec{op: opStream, plats: []string{string(plat.ID)}, precision: "single"}
	if plat.SupportsDouble() && g.rng.Intn(2) == 1 {
		sp.precision = "double"
	}
	// Shapes come in seeded shuffles of every size × chunk pair, so each
	// run streams the same mix of shapes whatever its seed.
	if len(g.shapes) == 0 {
		for _, n := range streamPoints {
			for _, c := range streamChunks {
				g.shapes = append(g.shapes, streamShape{n, c})
			}
		}
		g.rng.Shuffle(len(g.shapes), func(i, j int) { g.shapes[i], g.shapes[j] = g.shapes[j], g.shapes[i] })
	}
	sp.points, sp.chunk = g.shapes[0].points, g.shapes[0].chunk
	g.shapes = g.shapes[1:]
	sp.sample = []int{0, sp.points - 1}
	for i := 0; i < streamSamples; i++ {
		sp.sample = append(sp.sample, g.rng.Intn(sp.points))
	}
	sp.post("/v1/sweep/stream", map[string]any{
		"platform_id": string(plat.ID), "precision": sp.precision,
		"points": sp.points, "chunk_points": sp.chunk,
	})
	return sp
}

// cycle is one refit calibration cycle: the built-in to measure and the
// pipeline's seeds.
type cycle struct {
	platform  string
	seed      uint64
	faultSeed uint64
}

// refitBlock is one block of refitPool indices in zipf (s=1.1)
// proportions over 20 cycles. Each run draws whole blocks in seeded
// orders, so its platform mix is the same whatever the seed: the pool's
// fits differ threefold in cost, and a drawn mix would move the
// workload's numbers from run to run.
var refitBlock = func() []int {
	var out []int
	prev := 0.0
	for i, c := range newZipf(len(refitPool), 1.1) {
		for j := 0; j < int(math.Round(20*(c-prev))); j++ {
			out = append(out, i)
		}
		prev = c
	}
	return out
}()

type refitGen struct {
	rng   *stats.Stream
	block []int // what is left of the current shuffled refitBlock
}

func newRefitGen(seed uint64) *refitGen { return &refitGen{rng: stats.NewStream(seed, "refit")} }

func (g *refitGen) next() cycle {
	if len(g.block) == 0 {
		g.block = append(g.block, refitBlock...)
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	p := refitPool[g.block[0]]
	g.block = g.block[1:]
	for {
		k := uint64(1 + g.rng.Intn(refitSeeds))
		if !slices.Contains(p.misses, k) {
			return cycle{platform: string(p.id), seed: k, faultSeed: k}
		}
	}
}

// fitBody is the cycle's POST /v1/fit request: the paper fault profile
// with the pipeline's default repeats and sweep.
func (c cycle) fitBody() []byte {
	body, err := json.Marshal(map[string]any{
		"platform_id": c.platform, "fault_profile": "paper",
		"seed": c.seed, "fault_seed": c.faultSeed,
	})
	if err != nil {
		panic("perfbench: marshal: " + err.Error())
	}
	return body
}

// digestN is how many generated requests (or refit cycles) the stream
// digest covers: a fixed prefix, so the digest does not depend on how
// many requests a run had time for.
const digestN = 1024

// streamDigest fingerprints a workload's generated request stream.
func streamDigest(workload string, seed uint64) string {
	h := sha256.New()
	switch workload {
	case wDashboard:
		g := newDashGen(seed)
		for i := 0; i < digestN; i++ {
			sp := g.next()
			fmt.Fprintf(h, "%s %s\n%s\n", sp.method, sp.path, sp.body)
		}
	case wSweep:
		g := newSweepGen(seed)
		for i := 0; i < digestN; i++ {
			sp := g.next()
			fmt.Fprintf(h, "%s %s\n%s\n%v\n", sp.method, sp.path, sp.body, sp.sample)
		}
	case wRefit:
		g := newRefitGen(seed)
		for i := 0; i < digestN; i++ {
			c := g.next()
			fmt.Fprintf(h, "%s\n", c.fitBody())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fittedParams is the fitted-constant block of a finished fit job.
type fittedParams struct {
	EpsFlopJ float64 `json:"eps_flop_j_per_flop"`
	EpsMemJ  float64 `json:"eps_mem_j_per_byte"`
	Pi1W     float64 `json:"pi1_w"`
	DeltaPiW float64 `json:"delta_pi_w"`
}

// truthFit is a platform's Table I constants in fit-result form.
func truthFit(p *machine.Platform) fittedParams {
	s := p.Single
	return fittedParams{
		EpsFlopJ: s.EpsFlop.JoulesPerFlop(), EpsMemJ: s.EpsMem.JoulesPerByte(),
		Pi1W: s.Pi1.Watts(), DeltaPiW: s.DeltaPi.Watts(),
	}
}

// uploadBody renders fitted constants as a platform description: the
// built-in's canonical JSON under a new id and name, with the four
// fitted energy and power constants swapped in (Table I units).
func uploadBody(base *machine.Platform, id string, f fittedParams) ([]byte, error) {
	canon, err := machine.Canonical(base)
	if err != nil {
		return nil, fmt.Errorf("rendering %s: %w", base.ID, err)
	}
	var doc map[string]any
	if err := json.Unmarshal(canon, &doc); err != nil {
		return nil, fmt.Errorf("re-keying %s: %w", base.ID, err)
	}
	doc["id"] = id
	doc["name"] = "refit " + base.Name
	doc["eps_s_pj_per_flop"] = f.EpsFlopJ * 1e12
	doc["eps_mem_pj_per_byte"] = f.EpsMemJ * 1e12
	doc["pi1_w"] = f.Pi1W
	doc["delta_pi_w"] = f.DeltaPiW
	return json.Marshal(doc)
}

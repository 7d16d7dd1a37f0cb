package machine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"archline/internal/model"
	"archline/internal/units"
)

// platformJSON is the on-disk platform description, in Table I's own
// units (Gflop/s, GB/s, pJ/flop, pJ/B, nJ/access, W) so a user can
// transcribe a datasheet or their own measurements directly.
type platformJSON struct {
	ID        string `json:"id"`
	Name      string `json:"name"`
	Processor string `json:"processor"`
	Microarch string `json:"microarch,omitempty"`
	ProcessNM int    `json:"process_nm,omitempty"`
	Class     string `json:"class"`
	IsGPU     bool   `json:"is_gpu,omitempty"`

	VendorSingleGflops float64 `json:"vendor_single_gflops"`
	VendorDoubleGflops float64 `json:"vendor_double_gflops,omitempty"`
	VendorMemGBs       float64 `json:"vendor_mem_gbs"`

	IdleW float64 `json:"idle_w"`

	SustainedSingleGflops float64 `json:"sustained_single_gflops"`
	SustainedDoubleGflops float64 `json:"sustained_double_gflops,omitempty"`
	SustainedMemGBs       float64 `json:"sustained_mem_gbs"`

	EpsSPJ    float64 `json:"eps_s_pj_per_flop"`
	EpsDPJ    float64 `json:"eps_d_pj_per_flop,omitempty"`
	EpsMemPJ  float64 `json:"eps_mem_pj_per_byte"`
	Pi1W      float64 `json:"pi1_w"`
	DeltaPiW  float64 `json:"delta_pi_w"`
	CacheLine int     `json:"cache_line_bytes"`

	L1 *levelJSON `json:"l1,omitempty"`
	L2 *levelJSON `json:"l2,omitempty"`

	RandEpsNJ   float64 `json:"eps_rand_nj_per_access,omitempty"`
	RandMaccs   float64 `json:"rand_macc_per_s,omitempty"`
	L1SizeBytes int64   `json:"l1_size_bytes,omitempty"`
	L2SizeBytes int64   `json:"l2_size_bytes,omitempty"`
}

type levelJSON struct {
	EpsPJ float64 `json:"eps_pj_per_byte"`
	BWGBs float64 `json:"bw_gbs"`
}

// classNames maps the JSON class field.
var classNames = map[string]Class{
	"desktop":     ClassDesktop,
	"mini":        ClassMini,
	"mobile":      ClassMobile,
	"coprocessor": ClassCoprocessor,
}

// classIDs is the inverse of classNames; kept as an explicit literal so
// encoding never depends on map iteration order.
var classIDs = map[Class]string{
	ClassDesktop:     "desktop",
	ClassMini:        "mini",
	ClassMobile:      "mobile",
	ClassCoprocessor: "coprocessor",
}

// MaxIDLength bounds platform IDs: they become URL path segments and
// registry index keys, so they stay short and filesystem-safe.
const MaxIDLength = 64

// ValidID reports whether id is acceptable as a platform identifier:
// 1-64 characters, lowercase alphanumerics plus '.', '_', '-', starting
// with a letter or digit. The restriction keeps IDs safe as URL path
// segments, cache-key fragments, and on-disk registry names.
func ValidID(id string) bool {
	if id == "" || len(id) > MaxIDLength {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validate is the strict platform-description check shared by every
// ingestion path (-platform-file, uploads, the registry's recovery
// scan). Beyond the structural checks FromJSON always made, it rejects
// non-finite and negative quantities field by field and constrains the
// ID to the registry-safe character set, so a malformed or hostile
// description fails loudly instead of producing NaN physics.
func (pj *platformJSON) validate() error {
	if pj.ID == "" || pj.Name == "" {
		return errors.New("machine: platform needs id and name")
	}
	if !ValidID(pj.ID) {
		return fmt.Errorf("machine: invalid platform id %q (want 1-%d chars of [a-z0-9._-], starting alphanumeric)",
			pj.ID, MaxIDLength)
	}
	if _, ok := classNames[pj.Class]; !ok {
		return fmt.Errorf("machine: unknown class %q (want desktop|mini|mobile|coprocessor)", pj.Class)
	}
	// Every numeric quantity is physically non-negative; the must-have
	// rates are strictly positive (model.Params.Validate re-checks the
	// derived parameters, but catching the raw field gives the uploader
	// an error naming their own JSON key). Each is also at most
	// maxQuantity, so the stored platform encodes back to itself.
	type fieldCheck struct {
		name     string
		v        float64
		positive bool
	}
	checks := []fieldCheck{
		{"vendor_single_gflops", pj.VendorSingleGflops, false},
		{"vendor_double_gflops", pj.VendorDoubleGflops, false},
		{"vendor_mem_gbs", pj.VendorMemGBs, false},
		{"idle_w", pj.IdleW, false},
		{"sustained_single_gflops", pj.SustainedSingleGflops, true},
		{"sustained_double_gflops", pj.SustainedDoubleGflops, false},
		{"sustained_mem_gbs", pj.SustainedMemGBs, true},
		{"eps_s_pj_per_flop", pj.EpsSPJ, false},
		{"eps_d_pj_per_flop", pj.EpsDPJ, false},
		{"eps_mem_pj_per_byte", pj.EpsMemPJ, false},
		{"pi1_w", pj.Pi1W, false},
		{"delta_pi_w", pj.DeltaPiW, false},
		{"eps_rand_nj_per_access", pj.RandEpsNJ, false},
		{"rand_macc_per_s", pj.RandMaccs, false},
		{"process_nm", float64(pj.ProcessNM), false},
		{"cache_line_bytes", float64(pj.CacheLine), true},
		{"l1_size_bytes", float64(pj.L1SizeBytes), false},
		{"l2_size_bytes", float64(pj.L2SizeBytes), false},
	}
	if pj.L1 != nil {
		checks = append(checks,
			fieldCheck{"l1.eps_pj_per_byte", pj.L1.EpsPJ, false},
			fieldCheck{"l1.bw_gbs", pj.L1.BWGBs, true})
	}
	if pj.L2 != nil {
		checks = append(checks,
			fieldCheck{"l2.eps_pj_per_byte", pj.L2.EpsPJ, false},
			fieldCheck{"l2.bw_gbs", pj.L2.BWGBs, true})
	}
	for _, c := range checks {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			return fmt.Errorf("machine: %s is not finite (%v)", c.name, c.v)
		}
		if c.v < 0 {
			return fmt.Errorf("machine: %s must be >= 0, got %v", c.name, c.v)
		}
		if c.positive && c.v == 0 {
			return fmt.Errorf("machine: %s must be > 0", c.name)
		}
		if c.v > maxQuantity {
			return fmt.Errorf("machine: %s is out of range (%v > 2^53)", c.name, c.v)
		}
	}
	return pj.validateSizes()
}

// minLevelSize is the smallest size a described level may have: two
// single-precision words, since the suite's L1 kernels stream half the
// level and a kernel touches at least one word.
const minLevelSize = 8

// validateSizes keeps the level sizes where the simulator's capacity
// rule can tell the suite's kernels apart: it serves a working set from
// the first described level whose size holds it, and the suite streams
// half of L1, halfway between L1 and L2, and DRAMWorkingSet. A size the
// rule cannot serve would otherwise fail the fit or drop a level from
// it silently.
func (pj *platformJSON) validateSizes() error {
	for _, l := range []struct {
		key       string
		described bool
		size      int64
	}{{"l1", pj.L1 != nil, pj.L1SizeBytes}, {"l2", pj.L2 != nil, pj.L2SizeBytes}} {
		if l.described && l.size < minLevelSize {
			return fmt.Errorf("machine: %s is described, so %s_size_bytes must be at least %d, got %d",
				l.key, l.key, minLevelSize, l.size)
		}
		if units.Bytes(l.size) >= DRAMWorkingSet {
			return fmt.Errorf("machine: %s_size_bytes must be below the suite's %d-byte DRAM working set, got %d",
				l.key, int64(DRAMWorkingSet), l.size)
		}
	}
	if pj.L1SizeBytes > 0 && pj.L2SizeBytes > 0 && pj.L2SizeBytes <= pj.L1SizeBytes {
		return fmt.Errorf("machine: l2_size_bytes (%d) must be above l1_size_bytes (%d)",
			pj.L2SizeBytes, pj.L1SizeBytes)
	}
	return nil
}

// maxQuantity bounds every numeric field. Integers up to 2^53 survive
// the float64 units they are stored in, and no unit conversion (at most
// ×1e9) overflows a value this size to an infinity ToJSON cannot write.
const maxQuantity = 1 << 53

// FromJSON decodes a platform description under the strict validator:
// unknown fields, trailing JSON documents, non-finite or negative
// quantities, and registry-unsafe IDs are all rejected, and the derived
// model parameters are validated, so a malformed datasheet fails loudly.
// This is the single ingestion path shared by `-platform-file`, the
// POST /v1/platforms upload, and the registry's startup recovery scan.
func FromJSON(r io.Reader) (*Platform, error) {
	var pj platformJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&pj); err != nil {
		return nil, fmt.Errorf("machine: decoding platform: %w", err)
	}
	// A second document, a stray '}' or ']', or other trailing garbage
	// after the description is someone concatenating files or truncation
	// corruption; either way the description's boundary is ambiguous, so
	// reject it. Only a clean end of input passes, and a read error is
	// wrapped so a body past its size limit still reports as one.
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		if err != nil {
			return nil, fmt.Errorf("machine: after the platform description: %w", err)
		}
		return nil, errors.New("machine: trailing data after the platform description")
	}
	if err := pj.validate(); err != nil {
		return nil, err
	}
	class := classNames[pj.Class]
	p := &Platform{
		ID:        ID(pj.ID),
		Name:      pj.Name,
		Processor: pj.Processor,
		Microarch: pj.Microarch,
		ProcessNM: pj.ProcessNM,
		Class:     class,
		IsGPU:     pj.IsGPU,
		Vendor: VendorPeak{
			Single: units.GFlopPerSec(pj.VendorSingleGflops),
			Double: units.GFlopPerSec(pj.VendorDoubleGflops),
			MemBW:  units.GBPerSec(pj.VendorMemGBs),
		},
		IdlePower: units.Power(pj.IdleW),
		Single: model.Params{
			TauFlop: units.GFlopPerSec(pj.SustainedSingleGflops).Inverse(),
			TauMem:  units.GBPerSec(pj.SustainedMemGBs).Inverse(),
			EpsFlop: units.PicoJoulePerFlop(pj.EpsSPJ),
			EpsMem:  units.PicoJoulePerByte(pj.EpsMemPJ),
			Pi1:     units.Power(pj.Pi1W),
			DeltaPi: units.Power(pj.DeltaPiW),
		},
		DoubleEps: units.PicoJoulePerFlop(pj.EpsDPJ),
		Sustained: Sustained{
			SingleRate: units.GFlopPerSec(pj.SustainedSingleGflops),
			DoubleRate: units.GFlopPerSec(pj.SustainedDoubleGflops),
			MemBW:      units.GBPerSec(pj.SustainedMemGBs),
		},
		CacheLine: units.Bytes(pj.CacheLine),
		L1Size:    units.Bytes(pj.L1SizeBytes),
		L2Size:    units.Bytes(pj.L2SizeBytes),
	}
	if pj.L1 != nil {
		p.L1 = level(pj.L1.EpsPJ, pj.L1.BWGBs)
		p.Sustained.L1BW = units.GBPerSec(pj.L1.BWGBs)
	}
	if pj.L2 != nil {
		p.L2 = level(pj.L2.EpsPJ, pj.L2.BWGBs)
		p.Sustained.L2BW = units.GBPerSec(pj.L2.BWGBs)
	}
	if pj.RandMaccs > 0 {
		p.Rand = random(pj.RandEpsNJ, pj.RandMaccs, p.CacheLine.Count())
		p.Sustained.RandRate = units.MAccPerSec(pj.RandMaccs)
	}
	if err := p.Single.Validate(); err != nil {
		return nil, fmt.Errorf("machine: %s: %w", p.Name, err)
	}
	if err := p.Hierarchy().Validate(); err != nil {
		return nil, fmt.Errorf("machine: %s: %w", p.Name, err)
	}
	return p, nil
}

// ToJSON encodes a platform in the same format FromJSON reads. Every
// unit-converted quantity is written as the value FromJSON converts back
// to the stored bits (see unscale), so FromJSON(ToJSON(p)) reproduces p.
func ToJSON(w io.Writer, p *Platform) error {
	if p == nil {
		return errors.New("machine: nil platform")
	}
	className := classIDs[p.Class]
	pj := platformJSON{
		ID:        string(p.ID),
		Name:      p.Name,
		Processor: p.Processor,
		Microarch: p.Microarch,
		ProcessNM: p.ProcessNM,
		Class:     className,
		IsGPU:     p.IsGPU,

		VendorSingleGflops: unscale(p.Vendor.Single.FlopsPerSec(), 1e9),
		VendorDoubleGflops: unscale(p.Vendor.Double.FlopsPerSec(), 1e9),
		VendorMemGBs:       unscale(p.Vendor.MemBW.BytesPerSec(), 1e9),

		IdleW: p.IdlePower.Watts(),

		SustainedSingleGflops: unscale(p.Sustained.SingleRate.FlopsPerSec(), 1e9),
		SustainedDoubleGflops: unscale(p.Sustained.DoubleRate.FlopsPerSec(), 1e9),
		SustainedMemGBs:       unscale(p.Sustained.MemBW.BytesPerSec(), 1e9),

		EpsSPJ:    unscale(p.Single.EpsFlop.JoulesPerFlop(), 1e-12),
		EpsDPJ:    unscale(p.DoubleEps.JoulesPerFlop(), 1e-12),
		EpsMemPJ:  unscale(p.Single.EpsMem.JoulesPerByte(), 1e-12),
		Pi1W:      p.Single.Pi1.Watts(),
		DeltaPiW:  p.Single.DeltaPi.Watts(),
		CacheLine: int(p.CacheLine),

		L1SizeBytes: int64(p.L1Size),
		L2SizeBytes: int64(p.L2Size),
	}
	// A level's tau is 1/bandwidth, which no decimal inverts exactly;
	// the sustained bandwidth it was built from does.
	if p.L1 != nil {
		pj.L1 = &levelJSON{EpsPJ: unscale(p.L1.Eps.JoulesPerByte(), 1e-12),
			BWGBs: unscale(p.Sustained.L1BW.BytesPerSec(), 1e9)}
	}
	if p.L2 != nil {
		pj.L2 = &levelJSON{EpsPJ: unscale(p.L2.Eps.JoulesPerByte(), 1e-12),
			BWGBs: unscale(p.Sustained.L2BW.BytesPerSec(), 1e9)}
	}
	if p.Rand != nil {
		pj.RandEpsNJ = unscale(p.Rand.Eps.JoulesPerAccess(), 1e-9)
		pj.RandMaccs = unscale(p.Rand.Rate.AccessesPerSec(), 1e6)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(pj)
}

// unscale returns the JSON value v whose forward conversion v*scale (a
// units constructor in FromJSON) gives stored back exactly. The rounded
// quotient stored/scale often decodes to a neighbouring float instead.
// A preimage lies within an ulp or two of the quotient; with none (a
// stored value no conversion produced), the quotient is the answer.
func unscale(stored, scale float64) float64 {
	q := stored / scale
	for _, dir := range [2]float64{math.Inf(1), math.Inf(-1)} {
		for v, n := q, 0; n < 3; v, n = math.Nextafter(v, dir), n+1 {
			//archlint:ignore floatcmp the exact preimage is the point: FromJSON must rebuild the same bits
			if v*scale == stored {
				return v
			}
		}
	}
	return q
}

// Canonical returns the platform's deterministic compact JSON encoding:
// ToJSON's field order with all inter-token whitespace removed. Two
// descriptions of the same platform (however formatted) canonicalize to
// identical bytes, so content hashes over this encoding are stable
// identity: the registry's blob envelopes, ETags, and the response
// cache's custom-platform key fragments are all derived from it. The
// compact form is also exactly what encoding/json re-emits when the
// bytes are embedded as a RawMessage, so an envelope round-trips
// through marshal/unmarshal without perturbing the hashed bytes.
func Canonical(p *Platform) ([]byte, error) {
	var pretty bytes.Buffer
	if err := ToJSON(&pretty, p); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, pretty.Bytes()); err != nil {
		return nil, fmt.Errorf("machine: canonicalizing: %w", err)
	}
	return buf.Bytes(), nil
}

package machine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"archline/internal/stats"
)

func TestJSONRoundTripAllPlatforms(t *testing.T) {
	for _, p := range All() {
		var buf bytes.Buffer
		if err := ToJSON(&buf, p); err != nil {
			t.Fatalf("%s: encode: %v", p.Name, err)
		}
		back, err := FromJSON(&buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", p.Name, err)
		}
		if back.ID != p.ID || back.Name != p.Name || back.Class != p.Class || back.IsGPU != p.IsGPU {
			t.Errorf("%s: identity fields changed", p.Name)
		}
		rel := func(a, b float64) float64 {
			if b == 0 {
				return math.Abs(a)
			}
			return math.Abs(a-b) / math.Abs(b)
		}
		if rel(float64(back.Single.TauFlop), float64(p.Single.TauFlop)) > 1e-9 {
			t.Errorf("%s: tau_flop changed", p.Name)
		}
		if rel(float64(back.Single.EpsMem), float64(p.Single.EpsMem)) > 1e-9 {
			t.Errorf("%s: eps_mem changed", p.Name)
		}
		if rel(float64(back.Single.Pi1), float64(p.Single.Pi1)) > 1e-9 {
			t.Errorf("%s: pi_1 changed", p.Name)
		}
		if (back.L1 == nil) != (p.L1 == nil) || (back.L2 == nil) != (p.L2 == nil) ||
			(back.Rand == nil) != (p.Rand == nil) {
			t.Errorf("%s: optional sections changed", p.Name)
		}
		if p.Rand != nil && rel(float64(back.Rand.Eps), float64(p.Rand.Eps)) > 1e-9 {
			t.Errorf("%s: eps_rand changed", p.Name)
		}
		if back.SupportsDouble() != p.SupportsDouble() {
			t.Errorf("%s: double support changed", p.Name)
		}
	}
}

func TestFromJSONCustomPlatform(t *testing.T) {
	src := `{
		"id": "my-accelerator",
		"name": "My Accelerator",
		"processor": "ACME X1",
		"class": "coprocessor",
		"is_gpu": true,
		"vendor_single_gflops": 8000,
		"vendor_mem_gbs": 400,
		"idle_w": 60,
		"sustained_single_gflops": 7200,
		"sustained_mem_gbs": 350,
		"eps_s_pj_per_flop": 20,
		"eps_mem_pj_per_byte": 200,
		"pi1_w": 80,
		"delta_pi_w": 150,
		"cache_line_bytes": 128,
		"l1": {"eps_pj_per_byte": 15, "bw_gbs": 2000},
		"l2": {"eps_pj_per_byte": 120, "bw_gbs": 500},
		"eps_rand_nj_per_access": 30,
		"rand_macc_per_s": 1200,
		"l1_size_bytes": 65536,
		"l2_size_bytes": 2097152
	}`
	p, err := FromJSON(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "My Accelerator" || !p.IsGPU {
		t.Error("identity fields")
	}
	if math.Abs(float64(p.Single.PeakFlopRate())-7.2e12) > 1e6 {
		t.Errorf("peak rate %v", p.Single.PeakFlopRate())
	}
	// The custom machine works with the whole model stack.
	if p.Single.AvgPowerAt(4) <= 0 {
		t.Error("model evaluation failed")
	}
	if p.Rand == nil || float64(p.Rand.Line) != 128 {
		t.Error("random access section")
	}
	if p.SupportsDouble() {
		t.Error("no eps_d given: double unsupported")
	}
}

func TestFromJSONErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":       `{`,
		"unknown field": `{"id":"x","name":"y","class":"mini","bogus":1}`,
		"missing id":    `{"name":"y","class":"mini"}`,
		"bad class":     `{"id":"x","name":"y","class":"quantum","cache_line_bytes":64}`,
		"no line": `{"id":"x","name":"y","class":"mini",
			"sustained_single_gflops":10,"sustained_mem_gbs":10,
			"eps_s_pj_per_flop":10,"eps_mem_pj_per_byte":10,"pi1_w":1,"delta_pi_w":1}`,
		"zero rate": `{"id":"x","name":"y","class":"mini","cache_line_bytes":64,
			"sustained_single_gflops":0,"sustained_mem_gbs":10,
			"eps_s_pj_per_flop":10,"eps_mem_pj_per_byte":10,"pi1_w":1,"delta_pi_w":1}`,
		"l1 above l2": `{"id":"x","name":"y","class":"mini","cache_line_bytes":64,
			"sustained_single_gflops":10,"sustained_mem_gbs":10,
			"eps_s_pj_per_flop":10,"eps_mem_pj_per_byte":10,"pi1_w":1,"delta_pi_w":1,
			"l1":{"eps_pj_per_byte":100,"bw_gbs":100},"l1_size_bytes":32768,
			"l2":{"eps_pj_per_byte":50,"bw_gbs":50},"l2_size_bytes":262144}`,
		"trailing document": `{"id":"x","name":"y","class":"mini","cache_line_bytes":64,
			"sustained_single_gflops":10,"sustained_mem_gbs":10,
			"eps_s_pj_per_flop":10,"eps_mem_pj_per_byte":10,"pi1_w":1,"delta_pi_w":1}
			{"second":"doc"}`,
		"trailing brace": `{"id":"x","name":"y","class":"mini","cache_line_bytes":64,
			"sustained_single_gflops":10,"sustained_mem_gbs":10,
			"eps_s_pj_per_flop":10,"eps_mem_pj_per_byte":10,"pi1_w":1,"delta_pi_w":1}}`,
		"trailing bracket": `{"id":"x","name":"y","class":"mini","cache_line_bytes":64,
			"sustained_single_gflops":10,"sustained_mem_gbs":10,
			"eps_s_pj_per_flop":10,"eps_mem_pj_per_byte":10,"pi1_w":1,"delta_pi_w":1} ]`,
		"negative energy": `{"id":"x","name":"y","class":"mini","cache_line_bytes":64,
			"sustained_single_gflops":10,"sustained_mem_gbs":10,
			"eps_s_pj_per_flop":-10,"eps_mem_pj_per_byte":10,"pi1_w":1,"delta_pi_w":1}`,
		"negative idle": `{"id":"x","name":"y","class":"mini","cache_line_bytes":64,"idle_w":-5,
			"sustained_single_gflops":10,"sustained_mem_gbs":10,
			"eps_s_pj_per_flop":10,"eps_mem_pj_per_byte":10,"pi1_w":1,"delta_pi_w":1}`,
		"overflowing float": `{"id":"x","name":"y","class":"mini","cache_line_bytes":64,
			"sustained_single_gflops":1e999,"sustained_mem_gbs":10,
			"eps_s_pj_per_flop":10,"eps_mem_pj_per_byte":10,"pi1_w":1,"delta_pi_w":1}`,
		"overflowing vendor rate": `{"id":"x","name":"y","class":"mini","cache_line_bytes":64,
			"vendor_single_gflops":1e300,"sustained_single_gflops":10,"sustained_mem_gbs":10,
			"eps_s_pj_per_flop":10,"eps_mem_pj_per_byte":10,"pi1_w":1,"delta_pi_w":1}`,
		"l1 size past float64 integers": `{"id":"x","name":"y","class":"mini","cache_line_bytes":64,
			"sustained_single_gflops":10,"sustained_mem_gbs":10,"l1_size_bytes":9223372036854775807,
			"eps_s_pj_per_flop":10,"eps_mem_pj_per_byte":10,"pi1_w":1,"delta_pi_w":1}`,
		"zero l1 bandwidth": `{"id":"x","name":"y","class":"mini","cache_line_bytes":64,
			"sustained_single_gflops":10,"sustained_mem_gbs":10,
			"eps_s_pj_per_flop":10,"eps_mem_pj_per_byte":10,"pi1_w":1,"delta_pi_w":1,
			"l1":{"eps_pj_per_byte":5,"bw_gbs":0}}`,
		"uppercase id": `{"id":"My-GPU","name":"y","class":"mini","cache_line_bytes":64,
			"sustained_single_gflops":10,"sustained_mem_gbs":10,
			"eps_s_pj_per_flop":10,"eps_mem_pj_per_byte":10,"pi1_w":1,"delta_pi_w":1}`,
		"id with slash": `{"id":"a/b","name":"y","class":"mini","cache_line_bytes":64,
			"sustained_single_gflops":10,"sustained_mem_gbs":10,
			"eps_s_pj_per_flop":10,"eps_mem_pj_per_byte":10,"pi1_w":1,"delta_pi_w":1}`,
		"id leading dot": `{"id":".hidden","name":"y","class":"mini","cache_line_bytes":64,
			"sustained_single_gflops":10,"sustained_mem_gbs":10,
			"eps_s_pj_per_flop":10,"eps_mem_pj_per_byte":10,"pi1_w":1,"delta_pi_w":1}`,
	}
	// Level sizes the simulator's capacity rule cannot serve, on an
	// edited desktop-cpu: each refusal names the key to fix.
	keys := map[string]string{}
	sized := func(name, key string, edit func(map[string]any)) {
		raw, err := Canonical(MustByID(DesktopCPU))
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		edit(m)
		body, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		cases[name], keys[name] = string(body), key
	}
	sized("l1 without a size", "l1_size_bytes", func(m map[string]any) { delete(m, "l1_size_bytes") })
	sized("l1 below two words", "l1_size_bytes", func(m map[string]any) { m["l1_size_bytes"] = minLevelSize - 1 })
	sized("l2 of 1 GiB", "l2_size_bytes", func(m map[string]any) { m["l2_size_bytes"] = 1 << 30 })
	sized("l1 at the DRAM working set", "l1_size_bytes",
		func(m map[string]any) { m["l1_size_bytes"] = int64(DRAMWorkingSet) })
	sized("l1 above l2 in size", "l2_size_bytes", func(m map[string]any) { m["l1_size_bytes"] = 512 << 10 })
	sized("l1 equal to l2 in size", "l2_size_bytes", func(m map[string]any) { m["l1_size_bytes"] = 256 << 10 })
	for name, src := range cases {
		_, err := FromJSON(strings.NewReader(src))
		if err == nil {
			t.Errorf("%s: should error", name)
		} else if key := keys[name]; key != "" && !strings.Contains(err.Error(), key) {
			t.Errorf("%s: error %q does not name %s", name, err, key)
		}
	}
	if err := ToJSON(&bytes.Buffer{}, nil); err == nil {
		t.Error("nil platform should error")
	}
}

func TestValidID(t *testing.T) {
	valid := []string{"gtx-titan", "a", "x.1_b-2", strings.Repeat("a", MaxIDLength)}
	for _, id := range valid {
		if !ValidID(id) {
			t.Errorf("ValidID(%q) = false, want true", id)
		}
	}
	invalid := []string{"", "A", "a b", "a/b", "-lead", ".lead", "_lead", "ä",
		strings.Repeat("a", MaxIDLength+1)}
	for _, id := range invalid {
		if ValidID(id) {
			t.Errorf("ValidID(%q) = true, want false", id)
		}
	}
	// Every Table I ID must stay valid: the registry serves them.
	for _, p := range All() {
		if !ValidID(string(p.ID)) {
			t.Errorf("built-in ID %q fails ValidID", p.ID)
		}
	}
}

// TestCanonicalDeterministic pins the property the registry's content
// hashes rely on: canonical bytes are a fixed point. Decoding them and
// canonicalizing again gives the same bytes (the same content hash,
// the same ETag), however often a description passes through an
// upload, a GET and a restart.
func TestCanonicalDeterministic(t *testing.T) {
	for _, p := range All() {
		src, err := Canonical(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		back, err := FromJSON(bytes.NewReader(src))
		if err != nil {
			t.Fatalf("%s: decode canonical: %v", p.Name, err)
		}
		c, err := Canonical(back)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if !bytes.Equal(c, src) {
			t.Errorf("%s: canonical form changed on a round trip:\n%s\n%s", p.Name, src, c)
		}
	}
}

// checkRoundTrip asserts that p survives an encode and decode field for
// field, and that its canonical bytes are a fixed point.
func checkRoundTrip(t *testing.T, p *Platform) {
	t.Helper()
	src, err := Canonical(p)
	if err != nil {
		t.Fatalf("%s: canonical: %v", p.ID, err)
	}
	back, err := FromJSON(bytes.NewReader(src))
	if err != nil || !reflect.DeepEqual(back, p) {
		t.Fatalf("%s: round trip through %s: %v\n got %+v\nwant %+v", p.ID, src, err, back, p)
	}
	if again, err := Canonical(back); err != nil || !bytes.Equal(again, src) {
		t.Fatalf("%s: canonical form changed on a round trip (%v):\n%s\n%s", p.ID, err, src, again)
	}
}

// TestCanonicalRoundTripRandomBodies holds seeded random descriptions,
// full-precision values in Table I's units with every optional field
// set on every other one, to checkRoundTrip. An encoder that divides by
// the unit scale changed 48% of them.
func TestCanonicalRoundTripRandomBodies(t *testing.T) {
	rng := stats.NewStream(289, "machine/roundtrip")
	v := func() float64 { return rng.Float64() * math.Pow(10, float64(rng.Intn(7)-2)) }
	for i := 0; i < 2000; i++ {
		body := fmt.Sprintf(`{"id":"rt-%d","name":"y","class":"mini","cache_line_bytes":64,
			"vendor_single_gflops":%v,"vendor_mem_gbs":%v,"idle_w":%v,"sustained_single_gflops":%v,
			"sustained_mem_gbs":%v,"eps_s_pj_per_flop":%v,"eps_mem_pj_per_byte":%v,"pi1_w":%v,"delta_pi_w":%v`,
			i, v(), v(), v(), v(), v(), v(), v(), v(), v())
		if i%2 == 1 {
			l1 := v()
			body += fmt.Sprintf(`,"vendor_double_gflops":%v,"sustained_double_gflops":%v,"eps_d_pj_per_flop":%v,
				"l1":{"eps_pj_per_byte":%v,"bw_gbs":%v},"l2":{"eps_pj_per_byte":%v,"bw_gbs":%v},
				"eps_rand_nj_per_access":%v,"rand_macc_per_s":%v,"l1_size_bytes":32768,"l2_size_bytes":262144`,
				v(), v(), v(), l1, v(), l1+v(), v(), v(), v())
		}
		p, err := FromJSON(strings.NewReader(body + "}"))
		if err != nil {
			t.Fatalf("%s}: %v", body, err)
		}
		checkRoundTrip(t, p)
	}
}

// FuzzPlatformRoundTrip holds every description FromJSON accepts to
// checkRoundTrip and requires it to be rejected with a stray '}' after
// it. Seeds: the built-ins' canonical forms, a drifting body, and one
// with every optional field set.
func FuzzPlatformRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		p, err := FromJSON(bytes.NewReader(body))
		if err != nil {
			return
		}
		checkRoundTrip(t, p)
		if _, err := FromJSON(bytes.NewReader(append(body[:len(body):len(body)], '}'))); err == nil {
			t.Fatalf("accepted %q with a trailing '}'", body)
		}
	})
}

// TestToJSONDeterministic guards the encoder against map-iteration-order
// flakiness: two consecutive renders of the same platform must be
// byte-identical (the class name is looked up via an explicit inverse
// map, not by ranging over classNames).
func TestToJSONDeterministic(t *testing.T) {
	for _, p := range All() {
		var a, b bytes.Buffer
		if err := ToJSON(&a, p); err != nil {
			t.Fatalf("%s: first encode: %v", p.Name, err)
		}
		if err := ToJSON(&b, p); err != nil {
			t.Fatalf("%s: second encode: %v", p.Name, err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: consecutive encodings differ", p.Name)
		}
		if !strings.Contains(a.String(), `"class"`) {
			t.Errorf("%s: class field missing from encoding", p.Name)
		}
	}
}

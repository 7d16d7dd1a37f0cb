package cache

import (
	"testing"
	"testing/quick"

	"archline/internal/stats"
	"archline/internal/units"
)

func l1Config() Config {
	return Config{Name: "L1", Size: units.KiB(32), LineSize: 64, Assoc: 8, Policy: LRU}
}

func l2Config() Config {
	return Config{Name: "L2", Size: units.KiB(256), LineSize: 64, Assoc: 8, Policy: LRU}
}

func TestConfigValidate(t *testing.T) {
	if err := l1Config().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := l1Config()
	bad.LineSize = 48 // not a power of two
	if bad.Validate() == nil {
		t.Error("non-power-of-two line size should be rejected")
	}
	bad = l1Config()
	bad.Assoc = 0
	if bad.Validate() == nil {
		t.Error("zero associativity should be rejected")
	}
	bad = l1Config()
	bad.Size = units.KiB(33) // not a multiple of line*assoc
	if bad.Validate() == nil {
		t.Error("ragged size should be rejected")
	}
	bad = l1Config()
	bad.Size = units.Bytes(64 * 8 * 3) // 3 sets: not a power of two
	if bad.Validate() == nil {
		t.Error("non-power-of-two set count should be rejected")
	}
	if got := l1Config().Sets(); got != 64 {
		t.Errorf("32KiB/64B/8-way has 64 sets, got %d", got)
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{LRU: "LRU", FIFO: "FIFO", Random: "random", Policy(9): "unknown"} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", p, p.String())
		}
	}
}

func TestLevelBasics(t *testing.T) {
	l, err := NewLevel(l1Config())
	if err != nil {
		t.Fatal(err)
	}
	// First touch misses, second hits (same line).
	if l.Access(0) {
		t.Error("cold access should miss")
	}
	if !l.Access(32) {
		t.Error("same-line access should hit")
	}
	if l.Hits() != 1 || l.Misses() != 1 || l.Accesses() != 2 {
		t.Errorf("counters: hits=%d misses=%d", l.Hits(), l.Misses())
	}
	if l.MissRate() != 0.5 {
		t.Errorf("miss rate = %v", l.MissRate())
	}
	l.Reset()
	if l.Accesses() != 0 || l.MissRate() != 0 {
		t.Error("Reset should clear counters")
	}
	if l.Access(0) {
		t.Error("post-reset access should miss again")
	}
	if l.Config().Name != "L1" {
		t.Error("Config accessor")
	}
}

func TestWorkingSetFitsAllHits(t *testing.T) {
	// A working set equal to the capacity streams at 100% hits after the
	// first pass — the premise of the paper's cache microbenchmarks.
	l, _ := NewLevel(l1Config())
	addrs, err := StreamAddrs(units.KiB(32), 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		l.Access(a)
	}
	coldMisses := uint64(int64(units.KiB(32)) / 64)
	if l.Misses() != coldMisses {
		t.Errorf("misses = %d, want only %d cold misses", l.Misses(), coldMisses)
	}
}

func TestWorkingSetExceedsCapacityLRUStreamsMiss(t *testing.T) {
	// Streaming a working set 2x the capacity under LRU evicts every line
	// before reuse: 100% miss rate at line granularity.
	l, _ := NewLevel(l1Config())
	addrs, _ := StreamAddrs(units.KiB(64), 64, 3) // line-stride touches
	for _, a := range addrs {
		l.Access(a)
	}
	if l.Hits() != 0 {
		t.Errorf("LRU streaming over 2x capacity should never hit, got %d hits", l.Hits())
	}
}

func TestLRUEviction(t *testing.T) {
	// Single-set cache, 2 ways, 64B lines: third distinct line evicts the
	// least recently used.
	cfg := Config{Name: "tiny", Size: 128, LineSize: 64, Assoc: 2, Policy: LRU}
	l, err := NewLevel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.Access(0)   // miss, loads line 0
	l.Access(64)  // miss, loads line 1
	l.Access(0)   // hit, line 0 now MRU
	l.Access(128) // miss, evicts line 1 (LRU)
	if !l.Access(0) {
		t.Error("line 0 should still be resident")
	}
	if l.Access(64) {
		t.Error("line 1 should have been evicted")
	}
}

func TestFIFOEviction(t *testing.T) {
	cfg := Config{Name: "tiny", Size: 128, LineSize: 64, Assoc: 2, Policy: FIFO}
	l, _ := NewLevel(cfg)
	l.Access(0)   // loads line 0 (first in)
	l.Access(64)  // loads line 1
	l.Access(0)   // hit; FIFO ignores recency
	l.Access(128) // evicts line 0 (first in), despite being just used
	if !l.Access(64) {
		t.Error("line 1 should still be resident under FIFO")
	}
	if l.Access(0) {
		t.Error("FIFO should have evicted line 0")
	}
}

func TestRandomPolicyStaysLegal(t *testing.T) {
	cfg := Config{Name: "tiny", Size: 256, LineSize: 64, Assoc: 4, Policy: Random}
	l, _ := NewLevel(cfg)
	for i := 0; i < 10000; i++ {
		l.Access(uint64(i*64) % 4096)
	}
	if l.Accesses() != 10000 {
		t.Error("all accesses must be counted")
	}
	if l.Hits()+l.Misses() != l.Accesses() {
		t.Error("hits + misses must equal accesses")
	}
}

func TestHierarchy(t *testing.T) {
	h, err := NewHierarchy(l1Config(), l2Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Levels()) != 2 {
		t.Fatal("two levels expected")
	}
	// Cold access misses both: served by memory (depth 2).
	if d := h.Access(0); d != 2 {
		t.Errorf("cold access served at depth %d, want 2 (memory)", d)
	}
	// Immediately again: L1 hit (depth 0).
	if d := h.Access(0); d != 0 {
		t.Errorf("warm access served at depth %d, want 0", d)
	}
	h.Reset()
	if d := h.Access(0); d != 2 {
		t.Error("Reset should cold the hierarchy")
	}

	if _, err := NewHierarchy(); err == nil {
		t.Error("empty hierarchy should error")
	}
	shrink := l2Config()
	shrink.LineSize = 32
	if _, err := NewHierarchy(l1Config(), shrink); err == nil {
		t.Error("line size shrinking outward should error")
	}
	bad := l1Config()
	bad.Assoc = 0
	if _, err := NewHierarchy(bad); err == nil {
		t.Error("invalid level config should propagate")
	}
}

func TestL2ServesL1Overflow(t *testing.T) {
	// Working set fits L2 but not L1: after warmup, L1 misses are served
	// by L2, not memory.
	h, _ := NewHierarchy(l1Config(), l2Config())
	addrs, _ := StreamAddrs(units.KiB(128), 64, 1)
	for _, a := range addrs { // warm both
		h.Access(a)
	}
	tr := h.Run(addrs, 64)
	if tr.ServedBy[2] != 0 {
		t.Errorf("second pass over L2-resident set should not touch memory, got %d", tr.ServedBy[2])
	}
	if tr.ServedBy[1] == 0 {
		t.Error("L2 should serve the L1 overflow")
	}
}

func TestTrafficAccounting(t *testing.T) {
	h, _ := NewHierarchy(l1Config(), l2Config())
	addrs, _ := StreamAddrs(units.KiB(16), 8, 1) // cold streaming, fits L1
	tr := h.Run(addrs, 8)
	n := uint64(len(addrs))
	var total uint64
	for _, s := range tr.ServedBy {
		total += s
	}
	if total != n {
		t.Errorf("ServedBy sums to %d, want %d", total, n)
	}
	// Requested bytes: n words of 8 bytes.
	if tr.LineBytes[0] != units.Bytes(float64(n)*8) {
		t.Errorf("requested bytes = %v", tr.LineBytes[0])
	}
	// Cold pass: every line fetched exactly once from memory.
	lines := float64(units.KiB(16)) / 64
	if tr.LineBytes[2] != units.Bytes(lines*64) {
		t.Errorf("memory traffic = %v bytes, want %v", tr.LineBytes[2], lines*64)
	}
	// Inclusive traffic is non-increasing outward beyond the request level.
	if tr.LineBytes[2] > tr.LineBytes[1] {
		t.Errorf("memory traffic %v exceeds L2 traffic %v", tr.LineBytes[2], tr.LineBytes[1])
	}
}

func TestStreamAddrs(t *testing.T) {
	addrs, err := StreamAddrs(64, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 16 {
		t.Fatalf("len = %d", len(addrs))
	}
	if addrs[0] != 0 || addrs[7] != 56 || addrs[8] != 0 {
		t.Error("stream addresses wrong")
	}
	for _, c := range []struct {
		ws, word units.Bytes
		passes   int
	}{
		{0, 8, 1}, {8, 0, 1}, {4, 8, 1}, {64, 8, 0},
	} {
		if _, err := StreamAddrs(c.ws, c.word, c.passes); err == nil {
			t.Errorf("StreamAddrs(%v,%v,%d) should error", c.ws, c.word, c.passes)
		}
	}
}

func TestChaseAddrsVisitsAllLines(t *testing.T) {
	const lines = 64
	rng := stats.NewStream(42, "chase-test")
	addrs, err := ChaseAddrs(lines*64, 64, lines, rng)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, a := range addrs {
		if a%64 != 0 {
			t.Fatalf("address %d not line-aligned", a)
		}
		seen[a] = true
	}
	// Sattolo's cycle: the first n steps visit all n lines exactly once.
	if len(seen) != lines {
		t.Errorf("chase visited %d distinct lines, want %d", len(seen), lines)
	}
}

func TestChaseAddrsDefeatsCache(t *testing.T) {
	// Chasing through a working set far larger than the cache should miss
	// nearly always — the premise of the random-access benchmark.
	l, _ := NewLevel(l1Config())
	addrs, _ := ChaseAddrs(units.MiB(8), 64, 100000, stats.NewStream(7, "big-chase"))
	for _, a := range addrs {
		l.Access(a)
	}
	if l.MissRate() < 0.95 {
		t.Errorf("chase over 8 MiB should defeat a 32 KiB cache, miss rate %v", l.MissRate())
	}
}

func TestChaseAddrsErrors(t *testing.T) {
	if _, err := ChaseAddrs(32, 64, 10, nil); err == nil {
		t.Error("working set below one line should error")
	}
	if _, err := ChaseAddrs(1024, 64, 0, nil); err == nil {
		t.Error("zero count should error")
	}
	if _, err := ChaseAddrs(1024, 0, 10, nil); err == nil {
		t.Error("zero line should error")
	}
	// nil rng uses a default stream deterministically.
	a, err := ChaseAddrs(1024, 64, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ChaseAddrs(1024, 64, 16, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Error("nil-rng chase should be deterministic")
		}
	}
}

// Property: hits + misses == accesses for arbitrary address streams.
func TestQuickCountersConsistent(t *testing.T) {
	f := func(raw []uint32, policyRaw uint8) bool {
		cfg := Config{Name: "q", Size: 4096, LineSize: 64, Assoc: 4,
			Policy: Policy(policyRaw % 3)}
		l, err := NewLevel(cfg)
		if err != nil {
			return false
		}
		for _, a := range raw {
			l.Access(uint64(a))
		}
		return l.Hits()+l.Misses() == uint64(len(raw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: an immediate re-access of the same address always hits.
func TestQuickTemporalLocality(t *testing.T) {
	f := func(raw []uint32) bool {
		l, err := NewLevel(l1Config())
		if err != nil {
			return false
		}
		for _, a := range raw {
			l.Access(uint64(a))
			if !l.Access(uint64(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: traffic outward is non-increasing and ServedBy sums to the
// access count.
func TestQuickHierarchyTraffic(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h, err := NewHierarchy(
			Config{Name: "L1", Size: 1024, LineSize: 64, Assoc: 2, Policy: LRU},
			Config{Name: "L2", Size: 8192, LineSize: 64, Assoc: 4, Policy: LRU},
		)
		if err != nil {
			return false
		}
		addrs := make([]uint64, len(raw))
		for i, a := range raw {
			addrs[i] = uint64(a % 65536)
		}
		tr := h.Run(addrs, 8)
		var total uint64
		for _, s := range tr.ServedBy {
			total += s
		}
		if total != uint64(len(addrs)) {
			return false
		}
		return tr.LineBytes[2] <= tr.LineBytes[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Package cache implements a set-associative cache hierarchy simulator.
//
// The paper's cache microbenchmarks size their working sets so the data
// fits in a chosen level of the memory hierarchy, and its random-access
// microbenchmark chases pointers through a permutation too large to
// cache. This package provides the substrate that makes those working-set
// arguments checkable in simulation: given a read stream, it reports
// how many bytes each level actually served, which internal/sim uses,
// when Options.UseCacheSim is set, to decide the level that serves a
// kernel's working set.
//
// The simulator models inclusive caches with configurable size, line
// size, associativity, and replacement policy (LRU, FIFO, or pseudo-
// random). It is a functional cache model, not a timing model: timing and
// energy are the job of internal/model and internal/sim.
package cache

import (
	"errors"
	"fmt"

	"archline/internal/stats"
	"archline/internal/units"
)

// Policy selects the replacement policy of a cache level.
type Policy int

// Replacement policies.
const (
	LRU Policy = iota
	FIFO
	Random
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "random"
	default:
		return "unknown"
	}
}

// Config describes one cache level.
type Config struct {
	Name     string      // e.g. "L1"
	Size     units.Bytes // total capacity; must be a multiple of LineSize*Assoc
	LineSize units.Bytes // bytes per line; power of two
	Assoc    int         // ways per set; >= 1
	Policy   Policy
}

// Validate checks the geometry.
func (c Config) Validate() error {
	size, line := int64(c.Size), int64(c.LineSize)
	if line <= 0 || line&(line-1) != 0 {
		return fmt.Errorf("cache: %s line size %d must be a positive power of two", c.Name, line)
	}
	if c.Assoc < 1 {
		return fmt.Errorf("cache: %s associativity %d must be >= 1", c.Name, c.Assoc)
	}
	if size <= 0 || size%(line*int64(c.Assoc)) != 0 {
		return fmt.Errorf("cache: %s size %d must be a positive multiple of line*assoc = %d",
			c.Name, size, line*int64(c.Assoc))
	}
	nsets := size / (line * int64(c.Assoc))
	if nsets&(nsets-1) != 0 {
		return fmt.Errorf("cache: %s set count %d must be a power of two", c.Name, nsets)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int {
	return int(int64(c.Size) / (int64(c.LineSize) * int64(c.Assoc)))
}

// way holds one resident line: its tag and the bookkeeping counters the
// replacement policies need.
type way struct {
	tag      uint64
	valid    bool
	lastUsed uint64 // LRU timestamp
	loaded   uint64 // FIFO timestamp
}

// Level is one simulated cache level.
type Level struct {
	cfg       Config
	sets      [][]way
	tick      uint64
	rng       *stats.Stream
	hits      uint64
	misses    uint64
	lineShift uint
	setMask   uint64
}

// NewLevel builds an empty cache level.
func NewLevel(cfg Config) (*Level, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Sets()
	sets := make([][]way, n)
	for i := range sets {
		sets[i] = make([]way, cfg.Assoc)
	}
	shift := uint(0)
	for l := int64(cfg.LineSize); l > 1; l >>= 1 {
		shift++
	}
	return &Level{
		cfg:       cfg,
		sets:      sets,
		rng:       stats.NewStream(0x9e3779b9, "cache-"+cfg.Name),
		lineShift: shift,
		setMask:   uint64(n - 1),
	}, nil
}

// Config returns the level's configuration.
func (l *Level) Config() Config { return l.cfg }

// Hits returns the number of accesses served by this level.
func (l *Level) Hits() uint64 { return l.hits }

// Misses returns the number of accesses that missed this level.
func (l *Level) Misses() uint64 { return l.misses }

// Accesses returns hits + misses.
func (l *Level) Accesses() uint64 { return l.hits + l.misses }

// MissRate returns misses/accesses, or 0 before any access.
func (l *Level) MissRate() float64 {
	total := l.Accesses()
	if total == 0 {
		return 0
	}
	return float64(l.misses) / float64(total)
}

// Reset clears contents and counters.
func (l *Level) Reset() {
	for i := range l.sets {
		for j := range l.sets[i] {
			l.sets[i][j] = way{}
		}
	}
	l.tick, l.hits, l.misses = 0, 0, 0
}

// Access looks up the line containing addr as a read, filling it on a
// miss, and reports whether it hit.
func (l *Level) Access(addr uint64) bool {
	l.tick++
	lineAddr := addr >> l.lineShift
	set := l.sets[lineAddr&l.setMask]
	tag := lineAddr >> uint(len64(l.setMask))
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			l.hits++
			set[i].lastUsed = l.tick
			return true
		}
	}
	l.misses++
	set[l.chooseVictim(set)] = way{tag: tag, valid: true, lastUsed: l.tick, loaded: l.tick}
	return false
}

// chooseVictim picks a replacement victim in the set per the policy.
func (l *Level) chooseVictim(set []way) int {
	for i := range set {
		if !set[i].valid {
			return i
		}
	}
	switch l.cfg.Policy {
	case LRU:
		victim := 0
		for i := 1; i < len(set); i++ {
			if set[i].lastUsed < set[victim].lastUsed {
				victim = i
			}
		}
		return victim
	case FIFO:
		victim := 0
		for i := 1; i < len(set); i++ {
			if set[i].loaded < set[victim].loaded {
				victim = i
			}
		}
		return victim
	case Random:
		return l.rng.Intn(len(set))
	default:
		return 0
	}
}

// len64 returns the number of set-index bits implied by the mask.
func len64(mask uint64) int {
	n := 0
	for mask != 0 {
		n++
		mask >>= 1
	}
	return n
}

// Hierarchy is an ordered stack of cache levels backed by memory. All
// levels share the innermost level's line size for traffic accounting.
type Hierarchy struct {
	levels []*Level
}

// NewHierarchy builds a hierarchy from inner (L1) to outer (last-level)
// configurations. At least one level is required, and line sizes must be
// non-decreasing outward.
func NewHierarchy(cfgs ...Config) (*Hierarchy, error) {
	if len(cfgs) == 0 {
		return nil, errors.New("cache: hierarchy needs at least one level")
	}
	h := &Hierarchy{}
	var prevLine units.Bytes
	for i, cfg := range cfgs {
		if i > 0 && cfg.LineSize < prevLine {
			return nil, fmt.Errorf("cache: %s line size shrinks outward", cfg.Name)
		}
		prevLine = cfg.LineSize
		l, err := NewLevel(cfg)
		if err != nil {
			return nil, err
		}
		h.levels = append(h.levels, l)
	}
	return h, nil
}

// Levels returns the levels from innermost to outermost.
func (h *Hierarchy) Levels() []*Level { return h.levels }

// Reset clears all levels.
func (h *Hierarchy) Reset() {
	for _, l := range h.levels {
		l.Reset()
	}
}

// Access walks the hierarchy with addr and returns the depth that served
// it: 0 for the innermost level, len(levels) for memory. Missing levels
// are filled on the way back (inclusive allocation).
func (h *Hierarchy) Access(addr uint64) int {
	for depth, l := range h.levels {
		if l.Access(addr) {
			return depth
		}
	}
	return len(h.levels)
}

// Traffic summarises where an access stream's data came from.
type Traffic struct {
	// ServedBy[d] counts accesses satisfied at depth d; index len(levels)
	// is main memory.
	ServedBy []uint64
	// LineBytes[d] is the byte volume moved *into* depth d-1 from depth d,
	// i.e. misses at depth d-1 times the line size; LineBytes[0] is the
	// bytes the core requested.
	LineBytes []units.Bytes
}

// Run replays an address stream and accumulates traffic. accessBytes is
// the request size the core issues per access (word size for streaming
// loads).
func (h *Hierarchy) Run(addrs []uint64, accessBytes units.Bytes) Traffic {
	served := make([]uint64, len(h.levels)+1)
	for _, a := range addrs {
		served[h.Access(a)]++
	}
	bytes := make([]units.Bytes, len(h.levels)+1)
	bytes[0] = units.Bytes(float64(len(addrs)) * accessBytes.Count())
	for d := 1; d <= len(h.levels); d++ {
		// Accesses served at depth >= d all crossed the boundary between
		// depth d-1 and d, each moving one line of the level at depth d-1.
		var crossings uint64
		for k := d; k <= len(h.levels); k++ {
			crossings += served[k]
		}
		line := h.levels[d-1].cfg.LineSize
		bytes[d] = units.Bytes(float64(crossings) * line.Count())
	}
	return Traffic{ServedBy: served, LineBytes: bytes}
}

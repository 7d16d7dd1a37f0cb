package cache

import (
	"errors"

	"archline/internal/stats"
	"archline/internal/units"
)

// StreamAddrs generates the address stream of a unit-stride streaming
// read over a working set of wsBytes, touched passes times with word-size
// accesses. This is the access pattern of the paper's intensity and cache
// microbenchmarks.
func StreamAddrs(wsBytes units.Bytes, wordBytes units.Bytes, passes int) ([]uint64, error) {
	ws, word := int64(wsBytes), int64(wordBytes)
	if ws <= 0 || word <= 0 || ws < word {
		return nil, errors.New("cache: working set must hold at least one word")
	}
	if passes < 1 {
		return nil, errors.New("cache: passes must be >= 1")
	}
	n := ws / word
	addrs := make([]uint64, 0, n*int64(passes))
	for p := 0; p < passes; p++ {
		for i := int64(0); i < n; i++ {
			addrs = append(addrs, uint64(i*word))
		}
	}
	return addrs, nil
}

// ChaseAddrs generates a pointer-chasing pattern: a random Hamiltonian
// cycle over the cache lines of the working set, followed for count
// steps. This is the paper's random-access microbenchmark: by
// construction each access depends on the previous one, cannot use the
// full interface width, and defeats prefetching.
func ChaseAddrs(wsBytes, lineBytes units.Bytes, count int, rng *stats.Stream) ([]uint64, error) {
	ws, line := int64(wsBytes), int64(lineBytes)
	if ws <= 0 || line <= 0 || ws < line {
		return nil, errors.New("cache: working set must hold at least one line")
	}
	if count < 1 {
		return nil, errors.New("cache: count must be >= 1")
	}
	if rng == nil {
		rng = stats.NewStream(1, "chase")
	}
	n := int(ws / line)
	// Build a random cycle with Sattolo's algorithm: next[i] gives the
	// line visited after line i, and the permutation is one single cycle,
	// so all n lines are visited before any repeats.
	next := make([]int, n)
	for i := range next {
		next[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	addrs := make([]uint64, count)
	cur := 0
	for k := range addrs {
		addrs[k] = uint64(int64(cur) * line)
		cur = next[cur]
	}
	return addrs, nil
}

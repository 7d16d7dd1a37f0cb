// Package simseed is an archlint test fixture: sim.Options literals
// missing an explicit Seed, next to clean code that must not be
// flagged.
package simseed

import "archline/internal/sim"

// Bad: Seed omitted — the zero seed is invisible at the call site.
func bad() sim.Options {
	return sim.Options{Noiseless: true}
}

// Bad: the empty literal hides the seed the same way.
var defaultOpts = sim.Options{}

// Clean: an explicit Seed, even zero, is a visible choice.
func clean() sim.Options {
	return sim.Options{Seed: 0, Noiseless: true}
}

// Clean: a positional literal spells out every field.
var allFields = sim.Options{7, false, nil, false}

// Clean: other packages' Options types are not this analyzer's business.
type Options struct{ Verbose bool }

var local = Options{}

package cluster

import (
	"errors"

	"archline/internal/model"
	"archline/internal/units"
)

// ScalingPoint is one cluster size in a scaling sweep.
type ScalingPoint struct {
	Nodes int
	Time  units.Time
	// Efficiency is the parallel efficiency: T(1)/(N*T(N)) for strong
	// scaling, T(1)/T(N) for weak scaling.
	Efficiency float64
	// EnergyPerWork is joules per flop of useful work.
	EnergyPerWork float64
	NetworkBound  bool
}

// ScalingMode selects the sweep's scaling discipline.
type ScalingMode int

// Scaling modes.
const (
	// StrongScaling keeps the global problem fixed and divides it over N.
	StrongScaling ScalingMode = iota
	// WeakScaling grows the problem with N (fixed work per node).
	WeakScaling
)

// ScalingSweep evaluates a step across cluster sizes. For strong scaling
// the step describes the whole problem; for weak scaling it describes
// one node's share (the global problem grows with N). The per-node halo
// payload is fixed (surface exchange), the classic source of strong-
// scaling breakdown: as N grows, per-node compute shrinks but the wire
// time does not.
func ScalingSweep(node model.Params, net Network, sizes []int, step Step,
	mode ScalingMode, overlap bool) ([]ScalingPoint, error) {
	if len(sizes) == 0 {
		return nil, errors.New("cluster: no sizes to sweep")
	}
	var baseTime float64
	var out []ScalingPoint
	for idx, n := range sizes {
		if n < 1 {
			return nil, errors.New("cluster: sizes must be >= 1")
		}
		c := &Cluster{Node: node, Nodes: n, Net: net, Overlap: overlap}
		s := step
		if mode == WeakScaling {
			s.W = units.Flops(step.W.Count() * float64(n))
			s.Q = units.Bytes(step.Q.Count() * float64(n))
		}
		pred, err := c.Run(s)
		if err != nil {
			return nil, err
		}
		t := pred.Time.Seconds()
		if idx == 0 {
			baseTime = t * float64(sizes[0])
			if mode == WeakScaling {
				baseTime = t
			}
		}
		eff := 0.0
		switch mode {
		case StrongScaling:
			// Ideal: T(N) = T(base)*base/N; efficiency = ideal/actual.
			eff = baseTime / (float64(n) * t)
		case WeakScaling:
			eff = baseTime / t
		}
		work := s.W.Count()
		out = append(out, ScalingPoint{
			Nodes:         n,
			Time:          pred.Time,
			Efficiency:    eff,
			EnergyPerWork: pred.Energy.Joules() / work,
			NetworkBound:  pred.NetworkBound,
		})
	}
	return out, nil
}

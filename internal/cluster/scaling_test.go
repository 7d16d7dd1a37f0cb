package cluster

import (
	"testing"

	"archline/internal/machine"
	"archline/internal/units"
)

func TestStrongScalingBreaksDownOnSlowNetwork(t *testing.T) {
	node := machine.MustByID(machine.ArndaleGPU).Single
	step := Step{
		W: units.TFlops(0.1), Q: units.GB(40),
		Msg: units.MiB(32), Pattern: Halo,
	}
	sizes := []int{1, 2, 4, 8, 16, 32, 64}
	pts, err := ScalingSweep(node, EthernetLowPower(), sizes, step, StrongScaling, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(sizes) {
		t.Fatal("point count")
	}
	// Base case: one node, efficiency 1 by construction.
	if pts[0].Efficiency < 0.99 || pts[0].Efficiency > 1.01 {
		t.Errorf("single-node efficiency %v", pts[0].Efficiency)
	}
	// Time decreases then saturates; efficiency decays.
	for k := 1; k < len(pts); k++ {
		if pts[k].Time > pts[k-1].Time*units.Time(1.0001) {
			t.Errorf("strong-scaling time increased at N=%d", pts[k].Nodes)
		}
		if pts[k].Efficiency > pts[k-1].Efficiency+1e-9 {
			t.Errorf("efficiency rose at N=%d", pts[k].Nodes)
		}
	}
	// The fixed halo on 1 GbE eventually dominates: the largest size is
	// network-bound and far below perfect efficiency.
	last := pts[len(pts)-1]
	if !last.NetworkBound {
		t.Error("64 nodes with fixed halos on GbE should be network-bound")
	}
	if last.Efficiency > 0.5 {
		t.Errorf("strong-scaling efficiency at 64 nodes %v, want collapsed", last.Efficiency)
	}
}

func TestWeakScalingHoldsUpWithOverlap(t *testing.T) {
	node := machine.MustByID(machine.ArndaleGPU).Single
	// Per-node share sized so compute clearly exceeds the halo wire time
	// on FDR.
	step := Step{
		W: units.GFlops(20), Q: units.GB(8),
		Msg: units.MiB(1), Pattern: Halo,
	}
	sizes := []int{1, 4, 16, 64}
	pts, err := ScalingSweep(node, InfinibandFDR(), sizes, step, WeakScaling, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		if pt.Efficiency < 0.95 {
			t.Errorf("weak scaling with halo exchange should hold: N=%d eff=%v",
				pt.Nodes, pt.Efficiency)
		}
	}
	// Energy per unit work includes the growing network constant power
	// but stays bounded.
	if pts[len(pts)-1].EnergyPerWork <= 0 {
		t.Error("energy accounting")
	}
}

func TestScalingSweepAllReduceWeak(t *testing.T) {
	// Weak scaling with an allreduce: the ring algorithm's per-node
	// volume is nearly constant in N, so efficiency stays high even as
	// the job grows.
	node := machine.MustByID(machine.ArndaleCPU).Single
	step := Step{
		W: units.GFlops(10), Q: units.GB(2),
		Msg: units.KiB(512), Pattern: AllReduce,
	}
	pts, err := ScalingSweep(node, InfinibandFDR(), []int{1, 8, 64}, step, WeakScaling, false)
	if err != nil {
		t.Fatal(err)
	}
	if pts[2].Efficiency < 0.9 {
		t.Errorf("allreduce weak scaling efficiency %v", pts[2].Efficiency)
	}
}

func TestScalingSweepErrors(t *testing.T) {
	node := machine.MustByID(machine.ArndaleGPU).Single
	step := Step{W: 1e9, Q: 1e9}
	if _, err := ScalingSweep(node, EthernetLowPower(), nil, step, StrongScaling, true); err == nil {
		t.Error("empty sizes should error")
	}
	if _, err := ScalingSweep(node, EthernetLowPower(), []int{0}, step, StrongScaling, true); err == nil {
		t.Error("zero size should error")
	}
	bad := Network{}
	if _, err := ScalingSweep(node, bad, []int{1}, step, StrongScaling, true); err == nil {
		t.Error("invalid network should error")
	}
}

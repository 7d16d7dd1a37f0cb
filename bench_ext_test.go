package archline

// Benchmarks for the extension subsystems: DVFS, the cluster/network
// model, bootstrap confidence intervals and trace-phase detection.

import (
	"testing"

	"archline/internal/cluster"
	"archline/internal/experiments"
	"archline/internal/machine"
	"archline/internal/model"
	"archline/internal/scenario"
	"archline/internal/sim"
	"archline/internal/trace"
	"archline/internal/units"
)

// BenchmarkDVFSAnalysis regenerates the DVFS what-if over all platforms.
func BenchmarkDVFSAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DVFSAnalysis(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDVFSOptimalFrequency measures one golden-section search.
func BenchmarkDVFSOptimalFrequency(b *testing.B) {
	d := model.DVFS{
		Base: machine.MustByID(machine.GTXTitan).Single,
		F0:   837e6, FMin: 324e6, FMax: 993e6,
		V0: 1.162, VMin: 0.875, FVmin: 540e6,
		Pi1FreqShare: 0.35,
	}
	for i := 0; i < b.N; i++ {
		if _, err := d.EnergyOptimalFrequency(4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkCaveat regenerates the network-adjusted fig. 1.
func BenchmarkNetworkCaveat(b *testing.B) {
	var last *experiments.NetworkResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Network()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Cases[1].EffAdvantage, "gbe-flopJ-advantage")
	b.ReportMetric(last.Cases[2].EffAdvantage, "ib-flopJ-advantage")
}

// BenchmarkClusterStep measures one bulk-synchronous superstep.
func BenchmarkClusterStep(b *testing.B) {
	cl := &cluster.Cluster{
		Node:    machine.MustByID(machine.ArndaleGPU).Single,
		Nodes:   47,
		Net:     cluster.EthernetLowPower(),
		Overlap: true,
	}
	step := cluster.Step{
		W: units.TFlops(1), Q: units.GB(100),
		Msg: units.MiB(2), Pattern: cluster.Halo,
	}
	for i := 0; i < b.N; i++ {
		if _, err := cl.Run(step); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhaseDetection measures change-point segmentation of a
// three-phase PowerMon trace.
func BenchmarkPhaseDetection(b *testing.B) {
	s := sim.New(machine.MustByID(machine.GTXTitan), sim.Options{Seed: 4})
	kernels := []sim.Kernel{
		{Name: "mem", Precision: sim.Single, FlopsPerWord: 0.5, WorkingSet: units.MiB(64), Passes: 900},
		{Name: "flops", Precision: sim.Single, FlopsPerWord: 4096, WorkingSet: units.MiB(64), Passes: 15},
		{Name: "chase", Precision: sim.Single, Pattern: sim.ChasePattern, WorkingSet: units.MiB(256), Passes: 120},
	}
	_, tr, err := s.MeasureSequence(kernels)
	if err != nil {
		b.Fatal(err)
	}
	pts, err := trace.FromTrace(tr)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var phases []trace.Phase
	for i := 0; i < b.N; i++ {
		phases, err = trace.DetectPhases(trace.MovingAverage(pts, 9), 16, 0.05)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(phases)), "phases")
}

// BenchmarkHeteroSplit measures the divisible-work partitioners.
func BenchmarkHeteroSplit(b *testing.B) {
	pool := []scenario.HeteroMachine{
		{Name: "titan", Params: machine.MustByID(machine.GTXTitan).Single, Count: 1},
		{Name: "mali", Params: machine.MustByID(machine.ArndaleGPU).Single, Count: 16},
		{Name: "phi", Params: machine.MustByID(machine.XeonPhi).Single, Count: 2},
	}
	b.Run("time", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := scenario.SplitForTime(pool, units.TFlops(1), 0.5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("energy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := scenario.SplitForEnergy(pool, units.TFlops(1), 0.5, 60); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRooflineKnee measures the knee bisection.
func BenchmarkRooflineKnee(b *testing.B) {
	p := machine.MustByID(machine.GTXTitan).Single
	for i := 0; i < b.N; i++ {
		if _, err := p.RequiredIntensityForEfficiency(0.8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalingSweep measures a 7-point strong-scaling sweep.
func BenchmarkScalingSweep(b *testing.B) {
	node := machine.MustByID(machine.ArndaleGPU).Single
	step := cluster.Step{W: units.TFlops(0.1), Q: units.GB(40), Msg: units.MiB(32), Pattern: cluster.Halo}
	sizes := []int{1, 2, 4, 8, 16, 32, 64}
	for i := 0; i < b.N; i++ {
		if _, err := cluster.ScalingSweep(node, cluster.EthernetLowPower(), sizes, step,
			cluster.StrongScaling, true); err != nil {
			b.Fatal(err)
		}
	}
}

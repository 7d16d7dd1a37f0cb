// Package archline is a Go reproduction of "Algorithmic Time, Energy,
// and Power on Candidate HPC Compute Building Blocks" (Choi, Dukhan,
// Liu, Vuduc; IPDPS 2014): the capped energy-roofline model, the
// twelve-platform Table I study, the microbenchmark + PowerMon
// measurement substrate (simulated), the model-fitting pipeline, and the
// power-throttling/bounding what-if analyses.
//
// This root package is the public API facade. The typical flow:
//
//	titan := archline.MustPlatform(archline.GTXTitan)
//	m := titan.Single                             // fitted model params
//	p := m.AvgPowerAt(4)                          // eq. (7) at 4 flop:Byte
//	eff := m.FlopsPerJouleAt(4)                   // energy efficiency
//	cmp, _ := archline.CompareBlocks("Titan", m,
//	    "Arndale GPU", archline.MustPlatform(archline.ArndaleGPU).Single,
//	    0.125, 256, 64)                           // fig. 1 analysis
//
// Everything heavier — simulating the microbenchmark suite, fitting
// parameters from measurements, regenerating the paper's tables and
// figures — is reachable through the re-exported subsystem entry points
// below and through the archline CLI (cmd/archline).
package archline

import (
	"context"
	"io"

	"archline/internal/cluster"
	"archline/internal/experiments"
	"archline/internal/machine"
	"archline/internal/microbench"
	"archline/internal/model"
	"archline/internal/scenario"
	"archline/internal/server"
	"archline/internal/sim"
	"archline/internal/units"
	"archline/internal/workload"
)

// Machine is the capped energy-roofline machine model of section III:
// tau_flop, tau_mem, eps_flop, eps_mem, pi_1 (constant power), and
// DeltaPi (the usable power cap). Its methods evaluate eqs. (1)-(7).
type Machine = model.Params

// Hierarchy extends Machine with per-cache-level memory costs.
type Hierarchy = model.Hierarchy

// LevelParams is one memory level's (tau, eps) pair.
type LevelParams = model.LevelParams

// RandomAccess is the pointer-chase access mode (rate, energy/access).
type RandomAccess = model.RandomAccessParams

// Regime classifies an intensity as memory-, cap-, or compute-bound.
type Regime = model.Regime

// The three regimes.
const (
	MemoryBound  = model.MemoryBound
	CapBound     = model.CapBound
	ComputeBound = model.ComputeBound
)

// Metric selects a comparable quantity for crossover searches.
type Metric = model.Metric

// The comparable metrics of fig. 1.
const (
	MetricFlopRate      = model.MetricFlopRate
	MetricFlopsPerJoule = model.MetricFlopsPerJoule
	MetricAvgPower      = model.MetricAvgPower
)

// Platform is one Table I row: identification, vendor peaks, sustained
// peaks, fitted parameters, cache levels, and random-access data.
type Platform = machine.Platform

// PlatformID names one of the twelve platforms.
type PlatformID = machine.ID

// The twelve Table I platforms.
const (
	DesktopCPU = machine.DesktopCPU
	NUCCPU     = machine.NUCCPU
	NUCGPU     = machine.NUCGPU
	APUCPU     = machine.APUCPU
	APUGPU     = machine.APUGPU
	GTX580     = machine.GTX580
	GTX680     = machine.GTX680
	GTXTitan   = machine.GTXTitan
	XeonPhi    = machine.XeonPhi
	PandaBoard = machine.PandaBoard
	ArndaleCPU = machine.ArndaleCPU
	ArndaleGPU = machine.ArndaleGPU
)

// Platforms returns all twelve platforms in Table I order.
func Platforms() []*Platform { return machine.All() }

// PlatformsByEfficiency returns the platforms in fig. 5 panel order
// (decreasing peak Gflop/J).
func PlatformsByEfficiency() []*Platform { return machine.ByPeakEfficiency() }

// GetPlatform looks a platform up by ID.
func GetPlatform(id PlatformID) (*Platform, error) { return machine.ByID(id) }

// MustPlatform is GetPlatform for static IDs; it panics on unknown IDs.
func MustPlatform(id PlatformID) *Platform { return machine.MustByID(id) }

// NewMachine builds a Machine from headline numbers: peak compute
// (flop/s), peak bandwidth (B/s), per-op energies (J/flop, J/B),
// constant power, and usable power cap (W).
func NewMachine(peakFlops, peakBW, epsFlop, epsMem, pi1, deltaPi float64) (Machine, error) {
	m := Machine{
		TauFlop: units.FlopRate(peakFlops).Inverse(),
		TauMem:  units.ByteRate(peakBW).Inverse(),
		EpsFlop: units.EnergyPerFlop(epsFlop),
		EpsMem:  units.EnergyPerByte(epsMem),
		Pi1:     units.Power(pi1),
		DeltaPi: units.Power(deltaPi),
	}
	if err := m.Validate(); err != nil {
		return Machine{}, err
	}
	return m, nil
}

// Intensity is a flop:Byte operational intensity.
type Intensity = units.Intensity

// Flops counts floating-point operations (the model's W).
type Flops = units.Flops

// Bytes counts memory traffic (the model's Q).
type Bytes = units.Bytes

// Time is seconds, Energy joules, Power watts.
type (
	Time   = units.Time
	Energy = units.Energy
	Power  = units.Power
)

// LogSpace returns n log-spaced intensities over [lo, hi], the sweep grid
// of every figure.
func LogSpace(lo, hi Intensity, n int) []Intensity { return model.LogSpace(lo, hi, n) }

// Crossover finds an intensity where machines a and b tie on metric m.
func Crossover(a, b Machine, m Metric, lo, hi Intensity) (Intensity, error) {
	return model.Crossover(a, b, m, lo, hi)
}

// PowerMatch returns how many copies of small match big's peak power
// (fig. 1's "47 x Arndale GPU").
func PowerMatch(big, small Machine) (int, error) { return model.PowerMatch(big, small) }

// BlockComparison is the fig. 1 building-block analysis.
type BlockComparison = scenario.BlockComparison

// CompareBlocks compares building block a against b and b's
// power-matched aggregate over [lo, hi] with n grid points.
func CompareBlocks(aName string, a Machine, bName string, b Machine,
	lo, hi Intensity, n int) (*BlockComparison, error) {
	return scenario.CompareBlocks(aName, a, bName, b, lo, hi, n)
}

// ThrottleCurve is one cap setting's sweep (figs. 6-7).
type ThrottleCurve = scenario.ThrottleCurve

// ThrottleSweep evaluates a machine under reduced power caps.
func ThrottleSweep(m Machine, fracs []float64, grid []Intensity) ([]ThrottleCurve, error) {
	return scenario.ThrottleSweep(m, fracs, grid)
}

// PowerBoundResult is the section V-D big-node-vs-small-assembly study.
type PowerBoundResult = scenario.PowerBoundResult

// PowerBound throttles big to a watt budget and compares it against an
// assembly of small machines at the same budget.
func PowerBound(big, small Machine, budgetWatts float64, i Intensity) (*PowerBoundResult, error) {
	return scenario.PowerBound(big, small, units.Power(budgetWatts), i)
}

// Workload is an abstract algorithm's (W, Q) cost profile.
type Workload = workload.Profile

// Placement is a workload evaluated on a machine.
type Placement = workload.Placement

// PlaceWorkload evaluates a workload on a machine (rand may be nil for
// purely streaming workloads).
func PlaceWorkload(p Workload, m Machine, rand *RandomAccess) (Placement, error) {
	return workload.Place(p, m, rand)
}

// Re-exported workload constructors; see internal/workload for the
// traffic models.
var (
	SpMV        = workload.SpMV
	FFT         = workload.FFT
	MatMul      = workload.MatMul
	Stencil7    = workload.Stencil7
	MergeSort   = workload.MergeSort
	BFS         = workload.BFS
	StreamTriad = workload.StreamTriad
	Dot         = workload.Dot
	AXPY        = workload.AXPY
)

// App is a composed application: phases executed for a number of
// iterations (e.g. a CG solve).
type App = workload.App

// AppPlacement is an application evaluated phase-by-phase on a machine.
type AppPlacement = workload.AppPlacement

// Composed-application constructors and evaluator.
var (
	CG       = workload.CG
	Jacobi3D = workload.Jacobi3D
	FFTConv  = workload.FFTConv
	PlaceApp = workload.PlaceApp
)

// DVFS is the dynamic voltage/frequency scaling extension of the model.
type DVFS = model.DVFS

// Cluster is N nodes joined by an interconnection network — the
// machinery behind the paper's "ignores the network" caveat.
type Cluster = cluster.Cluster

// ClusterNetwork describes the interconnect attached to every node.
type ClusterNetwork = cluster.Network

// ClusterStep is one bulk-synchronous superstep on a cluster.
type ClusterStep = cluster.Step

// Communication patterns for cluster steps.
const (
	Embarrassing = cluster.Embarrassing
	Halo         = cluster.Halo
	AllReduce    = cluster.AllReduce
	AllToAll     = cluster.AllToAll
)

// Reference interconnects.
var (
	EthernetLowPower = cluster.EthernetLowPower
	InfinibandFDR    = cluster.InfinibandFDR
)

// PlatformFromJSON and PlatformToJSON read and write platform
// descriptions in Table I's units, so users can model their own
// hardware (see also archline's -platform-file flag).
var (
	PlatformFromJSON = machine.FromJSON
	PlatformToJSON   = machine.ToJSON
)

// Simulator runs microbenchmark kernels on a simulated platform.
type Simulator = sim.Simulator

// SimOptions tune the simulator (seed, noise, fault injection, trace
// sanitization).
type SimOptions = sim.Options

// Kernel is a microbenchmark specification.
type Kernel = sim.Kernel

// Measurement is one lab-bench (W, Q, time, energy, power) tuple.
type Measurement = sim.Measurement

// NewSimulator builds a simulator for a platform.
func NewSimulator(p *Platform, opts SimOptions) *Simulator { return sim.New(p, opts) }

// SuiteResult is a full microbenchmark-suite run on one platform.
type SuiteResult = microbench.Result

// RunSuite executes the paper's full microbenchmark suite on a platform.
func RunSuite(p *Platform, opts SimOptions) (*SuiteResult, error) {
	return microbench.Run(p, microbench.DefaultConfig(), opts)
}

// ExperimentOptions configure the table/figure reproductions.
type ExperimentOptions = experiments.Options

// Experiment drivers: each regenerates one table or figure of the paper.
var (
	ReproduceTableI = experiments.TableI
	ReproduceFig1   = experiments.Fig1
	ReproduceFig4   = experiments.Fig4
	ReproduceFig5   = experiments.Fig5
	Scenarios       = experiments.Scenarios
)

// Throttle quantities for the figs. 6/7 reproduction.
const (
	ThrottlePower = experiments.ThrottlePower // fig. 6
	ThrottlePerf  = experiments.ThrottlePerf  // fig. 7a
	ThrottleEff   = experiments.ThrottleEff   // fig. 7b
)

// ReproduceThrottle regenerates fig. 6, 7a, or 7b.
func ReproduceThrottle(q experiments.ThrottleQuantity) (*experiments.ThrottleResult, error) {
	return experiments.Throttle(q)
}

// HeteroMachine, HeteroSplit: heterogeneous pools of building blocks and
// the divisible-work partitions across them.
type (
	HeteroMachine = scenario.HeteroMachine
	HeteroSplit   = scenario.HeteroSplit
)

// SplitForTime partitions w flops at intensity i across a heterogeneous
// pool to minimize the makespan.
func SplitForTime(pool []HeteroMachine, w Flops, i Intensity) (*HeteroSplit, error) {
	return scenario.SplitForTime(pool, w, i)
}

// SplitForEnergy partitions w flops at intensity i to minimize energy
// under a deadline.
func SplitForEnergy(pool []HeteroMachine, w Flops, i Intensity, deadline Time) (*HeteroSplit, error) {
	return scenario.SplitForEnergy(pool, w, i, deadline)
}

// ServerConfig tunes archlined, the HTTP/JSON query daemon over the
// model, platform database, and scenario engines (see internal/server
// and cmd/archlined).
type ServerConfig = server.Config

// Server is an embeddable archlined instance; Handler() exposes it for
// mounting into an existing mux, Run() serves it standalone.
type Server = server.Server

// NewServer builds an archlined instance (zero config fields take
// defaults).
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// RunServer serves archlined on cfg.Addr until ctx is cancelled, then
// drains gracefully.
func RunServer(ctx context.Context, cfg ServerConfig, stdout, stderr io.Writer) error {
	return server.Run(ctx, cfg, stdout, stderr)
}

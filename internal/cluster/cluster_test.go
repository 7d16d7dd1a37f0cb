package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"archline/internal/machine"
	"archline/internal/model"
	"archline/internal/units"
)

func arndaleCluster(n int, net Network, overlap bool) *Cluster {
	return &Cluster{
		Node:    machine.MustByID(machine.ArndaleGPU).Single,
		Nodes:   n,
		Net:     net,
		Overlap: overlap,
	}
}

func approx(t *testing.T, got, want, relTol float64, name string) {
	t.Helper()
	if math.Abs(got-want) > relTol*math.Abs(want)+1e-300 {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

func TestNetworkValidate(t *testing.T) {
	for _, n := range []Network{EthernetLowPower(), InfinibandFDR()} {
		if err := n.Validate(); err != nil {
			t.Errorf("standard network invalid: %v", err)
		}
	}
	cases := []func(*Network){
		func(n *Network) { n.NICPower = -1 },
		func(n *Network) { n.SwitchPower = -1 },
		func(n *Network) { n.SwitchRadix = 0 },
		func(n *Network) { n.LinkBW = 0 },
		func(n *Network) { n.EpsLink = -1 },
	}
	for i, mutate := range cases {
		n := EthernetLowPower()
		mutate(&n)
		if n.Validate() == nil {
			t.Errorf("case %d: invalid network accepted", i)
		}
	}
}

func TestPerNodeConstantPower(t *testing.T) {
	n := Network{NICPower: 2, SwitchPower: 48, SwitchRadix: 24, LinkBW: 1, EpsLink: 0}
	approx(t, float64(n.PerNodeConstantPower()), 4, 1e-12, "NIC + switch share")
}

func TestClusterValidate(t *testing.T) {
	c := arndaleCluster(4, EthernetLowPower(), false)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.Nodes = 0
	if c.Validate() == nil {
		t.Error("zero nodes should be rejected")
	}
	c = arndaleCluster(4, EthernetLowPower(), false)
	c.Net.LinkBW = 0
	if c.Validate() == nil {
		t.Error("invalid network should be rejected")
	}
	c = arndaleCluster(4, EthernetLowPower(), false)
	c.Node = model.Params{}
	if c.Validate() == nil {
		t.Error("invalid node should be rejected")
	}
}

func TestWireVolume(t *testing.T) {
	msg := units.Bytes(1000)
	cases := []struct {
		p     Pattern
		nodes int
		want  float64
	}{
		{Embarrassing, 8, 0},
		{Halo, 8, 1000},
		{AllReduce, 8, 2 * 1000 * 7.0 / 8.0},
		{AllReduce, 1, 0},
		{AllToAll, 8, 7000},
	}
	for _, c := range cases {
		got, err := wireVolume(c.p, msg, c.nodes)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, float64(got), c.want, 1e-12, c.p.String())
	}
	if _, err := wireVolume(Pattern(99), msg, 4); err == nil {
		t.Error("unknown pattern should error")
	}
	for p, want := range map[Pattern]string{
		Embarrassing: "embarrassing", Halo: "halo", AllReduce: "allreduce",
		AllToAll: "all-to-all", Pattern(9): "unknown",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", p, p.String())
		}
	}
}

func TestRunEmbarrassingMatchesScaledNode(t *testing.T) {
	// With no communication and no network power, a cluster step equals
	// the scaled single machine.
	c := arndaleCluster(8, Network{SwitchRadix: 1, LinkBW: 1, NICPower: 0, SwitchPower: 0}, false)
	w, q := units.GFlops(80), units.GB(8)
	pred, err := c.Run(Step{W: w, Q: q, Pattern: Embarrassing})
	if err != nil {
		t.Fatal(err)
	}
	agg, _ := c.Node.Scale(8)
	approx(t, float64(pred.Time), float64(agg.Time(w, q)), 1e-9, "time")
	approx(t, float64(pred.Energy), float64(agg.Energy(w, q)), 1e-9, "energy")
	if pred.NetworkBound || pred.CommTime != 0 || pred.CommEnergy != 0 {
		t.Error("embarrassing step should have no communication")
	}
}

func TestRunChargesCommunication(t *testing.T) {
	c := arndaleCluster(16, EthernetLowPower(), false)
	w, q := units.GFlops(160), units.GB(16)
	msg := units.MiB(64)
	noComm, err := c.Run(Step{W: w, Q: q, Pattern: Embarrassing})
	if err != nil {
		t.Fatal(err)
	}
	halo, err := c.Run(Step{W: w, Q: q, Msg: msg, Pattern: Halo})
	if err != nil {
		t.Fatal(err)
	}
	if halo.Time <= noComm.Time {
		t.Error("halo exchange should cost time on a slow network")
	}
	if halo.Energy <= noComm.Energy {
		t.Error("halo exchange should cost energy")
	}
	if halo.CommEnergy <= 0 {
		t.Error("link energy should be charged")
	}
	// All-to-all moves (N-1)x the payload of halo.
	a2a, err := c.Run(Step{W: w, Q: q, Msg: msg, Pattern: AllToAll})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, float64(a2a.CommTime), float64(halo.CommTime)*15, 1e-9, "a2a wire time")
}

func TestOverlapHidesCommunication(t *testing.T) {
	net := InfinibandFDR()
	w, q := units.GFlops(800), units.GB(80)
	msg := units.MiB(8)
	bsp := arndaleCluster(16, net, false)
	ovl := arndaleCluster(16, net, true)
	pb, err := bsp.Run(Step{W: w, Q: q, Msg: msg, Pattern: Halo})
	if err != nil {
		t.Fatal(err)
	}
	po, err := ovl.Run(Step{W: w, Q: q, Msg: msg, Pattern: Halo})
	if err != nil {
		t.Fatal(err)
	}
	if po.Time >= pb.Time {
		t.Error("overlap should hide wire time behind compute")
	}
	// When comm fits under compute, overlapped time equals compute time.
	if po.NetworkBound {
		t.Error("small message on FDR should not be network-bound")
	}
}

func TestNetworkBoundStep(t *testing.T) {
	c := arndaleCluster(4, EthernetLowPower(), true)
	// Tiny compute, huge message: wire dominates.
	pred, err := c.Run(Step{W: units.Flops(1e6), Q: units.KiB(4), Msg: units.GB(1), Pattern: Halo})
	if err != nil {
		t.Fatal(err)
	}
	if !pred.NetworkBound {
		t.Error("1 GB over 1 GbE must be network-bound")
	}
	approx(t, float64(pred.Time), float64(pred.CommTime), 1e-9, "wire sets the pace")
}

func TestRunErrors(t *testing.T) {
	c := arndaleCluster(4, EthernetLowPower(), false)
	if _, err := c.Run(Step{W: -1}); err == nil {
		t.Error("negative work should error")
	}
	bad := arndaleCluster(0, EthernetLowPower(), false)
	if _, err := bad.Run(Step{}); err == nil {
		t.Error("invalid cluster should error")
	}
	if _, err := c.Run(Step{Pattern: Pattern(42)}); err == nil {
		t.Error("unknown pattern should error")
	}
	if _, err := bad.EffectiveParams(); err == nil {
		t.Error("invalid cluster should error from EffectiveParams")
	}
}

func TestEffectiveParamsNetworkErodesAdvantage(t *testing.T) {
	// The paper's caveat, quantified: the 47-Arndale aggregate beats the
	// Titan by ~1.6x at low intensity with a free network, but an
	// Ethernet-class network's constant power alone erodes the
	// energy-efficiency advantage.
	titan := machine.MustByID(machine.GTXTitan).Single
	free := arndaleCluster(47, Network{SwitchRadix: 1, LinkBW: 1}, true)
	eth := arndaleCluster(47, EthernetLowPower(), true)

	pFree, err := free.EffectiveParams()
	if err != nil {
		t.Fatal(err)
	}
	pEth, err := eth.EffectiveParams()
	if err != nil {
		t.Fatal(err)
	}
	i := units.Intensity(0.25)
	// Performance: unchanged by constant power (still ~1.6x).
	if pEth.FlopRateAt(i) != pFree.FlopRateAt(i) {
		t.Error("network constant power should not change peak-rate analysis")
	}
	// Energy efficiency: eroded.
	effFree := float64(pFree.FlopsPerJouleAt(i))
	effEth := float64(pEth.FlopsPerJouleAt(i))
	if effEth >= effFree {
		t.Error("network power must erode energy efficiency")
	}
	// With the network, the Arndale cluster's energy advantage over the
	// Titan at SpMV-like intensity drops substantially.
	effTitan := float64(titan.FlopsPerJouleAt(i))
	advFree := effFree / effTitan
	advEth := effEth / effTitan
	if advFree < 1.05 {
		t.Fatalf("premise: free-network cluster should beat Titan on flop/J at I=0.25, ratio %v", advFree)
	}
	if advEth >= advFree-0.05 {
		t.Errorf("network should visibly erode the advantage: %v -> %v", advFree, advEth)
	}
	t.Logf("flop/J advantage over Titan at I=0.25: free net %.2fx, 1GbE %.2fx", advFree, advEth)
}

func TestClusterPowerAccounting(t *testing.T) {
	c := arndaleCluster(10, EthernetLowPower(), false)
	per := float64(c.Node.Pi1) + float64(c.Net.PerNodeConstantPower())
	approx(t, float64(c.ConstantPower()), 10*per, 1e-12, "constant power")
	if c.PeakPower() <= c.ConstantPower() {
		t.Error("peak power must exceed constant power")
	}
}

// Property: cluster energy and time are monotone in message size.
func TestQuickMonotoneInMessage(t *testing.T) {
	c := arndaleCluster(8, EthernetLowPower(), false)
	f := func(m1, m2 float64) bool {
		a := units.Bytes(math.Abs(math.Mod(m1, 1e9)))
		b := units.Bytes(math.Abs(math.Mod(m2, 1e9)))
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		pa, err := c.Run(Step{W: units.GFlops(10), Q: units.GB(1), Msg: a, Pattern: AllReduce})
		if err != nil {
			return false
		}
		pb, err := c.Run(Step{W: units.GFlops(10), Q: units.GB(1), Msg: b, Pattern: AllReduce})
		if err != nil {
			return false
		}
		return pb.Time >= pa.Time && pb.Energy >= pa.Energy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: E = P*T for any step.
func TestQuickEnergyPowerConsistency(t *testing.T) {
	c := arndaleCluster(8, InfinibandFDR(), true)
	f := func(wi, mi float64) bool {
		w := units.Flops(1e9 * (1 + math.Abs(math.Mod(wi, 100))))
		m := units.Bytes(math.Abs(math.Mod(mi, 1e8)))
		if math.IsNaN(float64(w)) || math.IsNaN(float64(m)) {
			return true
		}
		p, err := c.Run(Step{W: w, Q: units.Bytes(float64(w) / 4), Msg: m, Pattern: Halo})
		if err != nil {
			return false
		}
		e := float64(p.AvgPower) * float64(p.Time)
		return math.Abs(e-float64(p.Energy)) <= 1e-9*float64(p.Energy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

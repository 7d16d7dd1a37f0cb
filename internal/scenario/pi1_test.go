package scenario

import (
	"math"
	"testing"

	"archline/internal/machine"
)

func TestPi1Reduction(t *testing.T) {
	studies, err := Pi1Reduction(machine.All(), 0.125, 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(studies) != 12 {
		t.Fatalf("got %d studies", len(studies))
	}
	for _, s := range studies {
		if len(s.Points) != 4 {
			t.Fatalf("%s: %d points", s.Platform.Name, len(s.Points))
		}
		// Factor 1 is the baseline: gain exactly 1.
		if math.Abs(s.Points[0].EffGain-1) > 1e-12 {
			t.Errorf("%s: baseline gain %v", s.Platform.Name, s.Points[0].EffGain)
		}
		// Efficiency improves monotonically as pi_1 shrinks.
		for k := 1; k < len(s.Points); k++ {
			if s.Points[k].EffGain < s.Points[k-1].EffGain-1e-12 {
				t.Errorf("%s: efficiency not monotone in pi_1 reduction", s.Platform.Name)
			}
		}
		// Reconfigurability (power range) widens as pi_1 shrinks — the
		// paper's "key factor" claim. (Factor 0 may yield min power 0;
		// range is then reported as 0 and skipped.)
		prev := s.Points[0].ReconfigRange
		for k := 1; k < len(s.Points); k++ {
			r := s.Points[k].ReconfigRange
			if r == 0 {
				continue
			}
			if r < prev-1e-12 {
				t.Errorf("%s: power range narrowed as pi_1 fell", s.Platform.Name)
			}
			prev = r
		}
	}
	// The platform with the largest pi_1 share (Xeon Phi or APU CPU at
	// ~83-94%) gains the most from eliminating it.
	var phiGain, titanGain float64
	for _, s := range studies {
		switch s.Platform.ID {
		case machine.XeonPhi:
			phiGain = s.Points[3].EffGain
		case machine.GTXTitan:
			titanGain = s.Points[3].EffGain
		}
	}
	if phiGain <= titanGain {
		t.Errorf("Phi (pi_1-dominated) should gain more than Titan: %v vs %v", phiGain, titanGain)
	}
	if _, err := Pi1Reduction(nil, 0.1, 10); err == nil {
		t.Error("no platforms should error")
	}
	if _, err := Pi1Reduction(machine.All(), 10, 1); err == nil {
		t.Error("bad range should error")
	}
}

func TestProcessNodeAnalysis(t *testing.T) {
	st, err := ProcessNodeAnalysis(machine.All())
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 12 || st.NCPU < 5 {
		t.Errorf("sample sizes N=%d NCPU=%d", st.N, st.NCPU)
	}
	// Per-flop energy tracks process node: positive rank correlation,
	// stronger when the GPU/manycore architectural spread is removed.
	if st.RhoCPU < 0.5 {
		t.Errorf("CPU-only Spearman %v, expected a clear Dennard-scaling signal", st.RhoCPU)
	}
	if st.RhoAll <= 0 {
		t.Errorf("all-platform Spearman %v, expected positive", st.RhoAll)
	}
	if st.RhoCPU < st.RhoAll-0.05 {
		t.Errorf("CPU-only signal (%v) should be at least as clean as mixed (%v)",
			st.RhoCPU, st.RhoAll)
	}
	if _, err := ProcessNodeAnalysis(machine.All()[:1]); err == nil {
		t.Error("too few platforms should error")
	}
}

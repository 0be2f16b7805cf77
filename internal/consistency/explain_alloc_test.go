package consistency_test

import (
	"testing"

	"repro/internal/consistency"
	"repro/internal/experiments"
)

// TestExplainAllocs pins the allocation count of one explanation of the
// two prover-heavy kinds of the explain workload: an unsat hierarchical
// chain and an unsat tractable instance. The minimizer re-saturates a
// constraint subset per candidate, and the saturation engine reuses
// one run's tables for the next, so a new per-fact or per-run
// allocation shows up here many times over.
func TestExplainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, k := range []struct {
		name string
		in   experiments.Instance
		max  float64
	}{
		{"hierarchical-3", experiments.Fig4Hierarchical(3, false), 2869},
		{"tractable-32", experiments.Thm35Tractable(32, false), 783},
	} {
		n := testing.AllocsPerRun(10, func() {
			ex, err := consistency.Explain(k.in.D, k.in.Set, consistency.Options{})
			if err != nil || ex.Verdict != consistency.Inconsistent {
				t.Fatalf("%s: %v %v", k.name, ex.Verdict, err)
			}
		})
		t.Logf("%s: %.0f allocs per explanation", k.name, n)
		if n > k.max {
			t.Errorf("%s: one explanation allocates %.0f times, want ≤ %.0f", k.name, n, k.max)
		}
	}
}

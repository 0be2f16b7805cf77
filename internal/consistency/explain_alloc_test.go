package consistency_test

import (
	"math/rand"
	"testing"

	"repro/internal/consistency"
	"repro/internal/experiments"
)

// TestExplainAllocs pins the allocation count of one explanation of the
// two prover-heavy kinds of the explain workload, an unsat hierarchical
// chain and an unsat tractable instance, and of its two solver-refuted
// kinds, the seeded subset-sum and Fig3Regular draws of
// BenchmarkExplain, which take the absolute and the regular route. The
// minimizer re-saturates a constraint subset per candidate and decides
// the rest through one compiled DTD, and the saturation engine reuses
// one run's tables for the next, so a new per-fact, per-run or
// per-subset allocation shows up here many times over.
func TestExplainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, k := range []struct {
		name string
		in   experiments.Instance
		max  float64
	}{
		{"hierarchical-3", experiments.Fig4Hierarchical(3, false), 2599},
		{"tractable-32", experiments.Thm35Tractable(32, false), 454},
		{"subsetsum", unsatDraw(func(rng *rand.Rand) experiments.Instance {
			return experiments.Thm35SubsetSum(rng, 4, 256)
		}), 571},
		{"qbf-reg", unsatDraw(func(rng *rand.Rand) experiments.Instance {
			return experiments.Fig3Regular(rng, 2)
		}), 2750},
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

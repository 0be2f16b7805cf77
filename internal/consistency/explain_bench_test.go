package consistency_test

import (
	"math/rand"
	"testing"

	"repro/internal/consistency"
	"repro/internal/experiments"
)

// BenchmarkExplain explains one inconsistent spec of each kind the
// explain-inconsistent serving workload draws: the geography testdata
// spec, unsat hierarchical chains, unsat tractable instances, and one
// seeded unsat subset-sum and Fig3Regular instance.
func BenchmarkExplain(b *testing.B) {
	d, set := consistency.LoadTestdataSpec(b, "geography", "geography")
	kinds := []struct {
		name string
		in   experiments.Instance
	}{
		{"geography", experiments.Instance{D: d, Set: set}},
		{"hierarchical-2", experiments.Fig4Hierarchical(2, false)},
		{"hierarchical-3", experiments.Fig4Hierarchical(3, false)},
		{"tractable-8", experiments.Thm35Tractable(8, false)},
		{"tractable-16", experiments.Thm35Tractable(16, false)},
		{"tractable-32", experiments.Thm35Tractable(32, false)},
		{"subsetsum", unsatDraw(func(rng *rand.Rand) experiments.Instance {
			return experiments.Thm35SubsetSum(rng, 4, 256)
		})},
		{"qbf-reg", unsatDraw(func(rng *rand.Rand) experiments.Instance {
			return experiments.Fig3Regular(rng, 2)
		})},
	}
	for _, k := range kinds {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ex, err := consistency.Explain(k.in.D, k.in.Set, consistency.Options{})
				if err != nil || ex.Verdict != consistency.Inconsistent {
					b.Fatalf("%v %v", ex.Verdict, err)
				}
			}
		})
	}
}

// unsatDraw draws from a seeded generator until it yields an
// inconsistent instance.
func unsatDraw(gen func(*rand.Rand) experiments.Instance) experiments.Instance {
	rng := rand.New(rand.NewSource(1))
	for {
		if in := gen(rng); in.Expect == consistency.Inconsistent {
			return in
		}
	}
}

package consistency_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/consistency"
	"repro/internal/experiments"
)

// witnessBenchSpecs are the consistent base specs of the
// small-distinct serving workload: the paper's library and school
// specs, Fig4Hierarchical levels 1–6 and Thm35Tractable widths 2–32.
func witnessBenchSpecs(tb testing.TB) []certSpec {
	var out []certSpec
	for _, p := range []struct{ dtd, keys string }{{"library", "library"}, {"school", "school"}} {
		d, set := consistency.LoadTestdataSpec(tb, p.dtd, p.keys)
		out = append(out, certSpec{name: p.keys, in: experiments.Instance{D: d, Set: set}})
	}
	for levels := 1; levels <= 6; levels++ {
		out = append(out, certSpec{name: fmt.Sprintf("hierarchical-%d", levels), in: experiments.Fig4Hierarchical(levels, true)})
	}
	for _, width := range []int{2, 8, 16, 32} {
		out = append(out, certSpec{name: fmt.Sprintf("tractable-%d", width), in: experiments.Thm35Tractable(width, true)})
	}
	return out
}

// BenchmarkWitness checks each consistent small-distinct spec with
// the witness built and verified, and with SkipWitness: the gap
// between the two is the witness pipeline's cost.
func BenchmarkWitness(b *testing.B) {
	for _, s := range witnessBenchSpecs(b) {
		for _, skip := range []bool{false, true} {
			name := s.name + "/witness"
			if skip {
				name = s.name + "/skip"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := consistency.CheckContext(context.Background(), s.in.D, s.in.Set, consistency.Options{SkipWitness: skip})
					if err != nil || res.Verdict != consistency.Consistent || res.WitnessVerified == skip {
						b.Fatalf("%v %v %s", res.Verdict, err, res.Diagnosis)
					}
				}
			})
		}
	}
}

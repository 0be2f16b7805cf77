package consistency_test

import (
	"testing"

	"repro/internal/consistency"
	"repro/internal/experiments"
)

// TestWitnessCheckAllocs pins the allocation count of one check that
// builds and verifies its witness, with observability off:
// Fig4Hierarchical(6, true), whose 63 scope instances are copies of
// six realized scope witnesses, and the school spec, whose regular
// witness is checked against Σ once, on the encoding's region
// automata. Realizing a scope per instance, compiling a path automaton
// for the Σ check or allocating per conformance step shows up here
// many times over.
func TestWitnessCheckAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	d, set := consistency.LoadTestdataSpec(t, "school", "school")
	for _, k := range []struct {
		name string
		in   experiments.Instance
		max  float64
	}{
		{"hierarchical-6", experiments.Fig4Hierarchical(6, true), 1915},
		{"school", experiments.Instance{D: d, Set: set}, 852},
	} {
		n := testing.AllocsPerRun(10, func() {
			res, err := consistency.Check(k.in.D, k.in.Set, consistency.Options{})
			if err != nil || !res.WitnessVerified {
				t.Fatalf("%s: %v %v %s", k.name, res.Verdict, err, res.Diagnosis)
			}
		})
		t.Logf("%s: %.0f allocs per check", k.name, n)
		if n > k.max {
			t.Errorf("%s: one check allocates %.0f times, want ≤ %.0f", k.name, n, k.max)
		}
	}
}

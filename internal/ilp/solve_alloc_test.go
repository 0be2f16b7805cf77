package ilp_test

import (
	"math/rand"
	"testing"

	"repro/internal/cardinality"
	"repro/internal/experiments"
	"repro/internal/ilp"
)

// encodeAbsolute returns the absolute encoding's system of an instance,
// the system its check solves.
func encodeAbsolute(t *testing.T, in experiments.Instance) *ilp.System {
	t.Helper()
	enc, err := cardinality.EncodeAbsolute(in.D, in.Set)
	if err != nil {
		t.Fatal(err)
	}
	return enc.Flow.Sys
}

// hardness returns BenchmarkThm35Hardness's instance of the given bit
// width, drawn as the benchmark draws it.
func hardness(bits int) experiments.Instance {
	rng := rand.New(rand.NewSource(2002))
	for b := 3; ; b += 2 {
		in := experiments.Thm35SubsetSum(rng, 4, 1<<uint(b)-1)
		if b == bits {
			return in
		}
	}
}

// TestRootHalfVisits pins the half visits of the one root-decided solve
// of BenchmarkThm35Hardness bits=3, whose root runs 14 rounds. A root
// that visited every half in every round made 1,372 visits; from its
// third round on the root visits only the halves whose variables moved
// since their last visit.
func TestRootHalfVisits(t *testing.T) {
	in := hardness(3)
	res, visits := ilp.SolveVisits(encodeAbsolute(t, in), ilp.Options{})
	if res.Verdict != ilp.Sat || res.Stats.Nodes != 1 || res.Stats.PropPasses != 14 {
		t.Fatalf("%s: %v after %d nodes and %d rounds, want sat at the root after 14",
			in.Name, res.Verdict, res.Stats.Nodes, res.Stats.PropPasses)
	}
	if visits != 383 {
		t.Errorf("%s: %d half visits, want 383", in.Name, visits)
	}
}

// TestSolveAllocs pins the allocations of one solve whose root ends in
// its second round, which builds no variable index, and of one solve
// that branches. `make gates` runs it without the race detector, whose
// instrumentation shifts the counts.
func TestSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, k := range []struct {
		name          string
		in            experiments.Instance
		nodes, rounds int
		max           float64
	}{
		{"tractable-16", experiments.Thm35Tractable(16, true), 1, 2, 14},
		{"subsetsum-bits=5", hardness(5), 9, 64, 32},
	} {
		sys := encodeAbsolute(t, k.in)
		res := ilp.Solve(sys, ilp.Options{})
		if res.Stats.Nodes != k.nodes || res.Stats.PropPasses != k.rounds {
			t.Fatalf("%s: %d nodes and %d rounds, want %d and %d", k.name, res.Stats.Nodes, res.Stats.PropPasses, k.nodes, k.rounds)
		}
		n := testing.AllocsPerRun(20, func() { ilp.Solve(sys, ilp.Options{}) })
		t.Logf("%s: %.0f allocs per solve", k.name, n)
		if n > k.max {
			t.Errorf("%s: one solve allocates %.0f times, want ≤ %.0f", k.name, n, k.max)
		}
	}
}

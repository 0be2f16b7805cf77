package prover_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/experiments"
	"repro/internal/pathre"
	"repro/internal/prover"
)

// TestReferenceFamilies: the paper's Figure 3/4 and Theorem 3.5
// families — from a handful of types up to the hundreds of the CNF/QBF
// reductions, where the work budget trips — saturate identically on
// the dense and the reference engine, whole and, for the smaller
// instances, subset by subset through one shared Analysis.
func TestReferenceFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var ins []experiments.Instance
	for _, sat := range []bool{false, true} {
		for levels := 1; levels <= 3; levels++ {
			ins = append(ins, experiments.Fig4Hierarchical(levels, sat))
		}
		for _, w := range []int{4, 8, 32} {
			ins = append(ins, experiments.Thm35Tractable(w, sat))
		}
	}
	for _, kind := range []string{"sat", "unsat"} {
		ins = append(ins, experiments.Fig3MultiMulti(kind))
	}
	for _, kind := range []string{"linear-sat", "linear-unsat"} {
		ins = append(ins, experiments.Fig4Diophantine(kind))
	}
	draws := 4
	if testing.Short() {
		draws = 2
	}
	for i := 0; i < draws; i++ {
		ins = append(ins,
			experiments.Thm35SubsetSum(rng, 4, 256),
			experiments.Fig3Regular(rng, 2),
			experiments.Fig4DLocal(rng, 2+i%2),
			experiments.Fig3Unary(rng, 3+i),
		)
		if in, ok := experiments.Fig3PDE(rng, 3+i); ok {
			ins = append(ins, in)
		}
	}
	exhausted, refuted := 0, 0
	for i, in := range ins {
		what := fmt.Sprintf("instance %d (%s)", i, in.Name)
		a, ref := prover.NewReferencePair(in.D)
		out := prover.RequireReferenceOutcome(t, a, ref, in.Set, what)
		if out.Exhausted {
			exhausted++
		}
		if out.Refuted {
			refuted++
		}
		if n := prover.ConstraintCount(in.Set); n <= 8 && len(in.D.Names) <= 40 {
			for mask := uint64(0); mask < 1<<n; mask++ {
				if sub := prover.SubsetOf(in.D, in.Set, mask); sub != nil {
					prover.RequireReferenceOutcome(t, a, ref, sub, fmt.Sprintf("%s subset %b", what, mask))
				}
			}
		}
	}
	if exhausted == 0 || refuted == 0 {
		t.Fatalf("the families exercise too little: %d exhausted, %d refuted of %d", exhausted, refuted, len(ins))
	}
	t.Logf("%d instances: %d exhausted the budget, %d refuted", len(ins), exhausted, refuted)
}

// TestReferenceRandomSpecs: 1,500 seeded random specifications from
// the differential generator — recursive DTDs, relative constraints,
// and a third of them rewritten onto regular paths — saturate
// identically on both engines; every fourth spec also has each of its
// well-formed subsets compared through one shared Analysis.
func TestReferenceRandomSpecs(t *testing.T) {
	n := 1500
	if testing.Short() {
		n = 300
	}
	rng := rand.New(rand.NewSource(47))
	valid, regular, recursive, relative, refuted := 0, 0, 0, 0, 0
	for i := 0; valid < n; i++ {
		d, set, ok := randomSpec(rng)
		if ok && rng.Intn(3) == 0 {
			set = withRandomPaths(rng, d, set)
			ok = set.Validate(d) == nil
			if ok {
				regular++
			}
		}
		if !ok {
			continue
		}
		valid++
		if d.IsRecursive() {
			recursive++
		}
		for _, k := range set.Keys {
			if k.Context != "" {
				relative++
				break
			}
		}
		what := fmt.Sprintf("spec %d\nDTD:\n%s\nΣ:\n%s", i, d, set)
		a, ref := prover.NewReferencePair(d)
		if prover.RequireReferenceOutcome(t, a, ref, set, what).Refuted {
			refuted++
		}
		if valid%4 != 0 {
			continue
		}
		for mask := uint64(0); mask < 1<<prover.ConstraintCount(set); mask++ {
			if sub := prover.SubsetOf(d, set, mask); sub != nil {
				prover.RequireReferenceOutcome(t, a, ref, sub, fmt.Sprintf("%s subset %b", what, mask))
			}
		}
	}
	if regular == 0 || recursive == 0 || relative == 0 || refuted == 0 {
		t.Fatalf("generator coverage too thin: %d regular, %d recursive, %d relative, %d refuted of %d",
			regular, recursive, relative, refuted, valid)
	}
	t.Logf("%d specs: %d regular, %d recursive, %d with relative keys, %d refuted",
		valid, regular, recursive, relative, refuted)
}

// withRandomPaths rewrites the absolute targets of set onto regular
// paths. Each distinct (type, attribute) target gets one path, so a
// foreign key and its paired key stay equal.
func withRandomPaths(rng *rand.Rand, d *dtd.DTD, set *constraint.Set) *constraint.Set {
	paths := map[string]*pathre.Expr{}
	rewrite := func(context string, t constraint.Target) constraint.Target {
		if context != "" {
			return t
		}
		id := t.Type + "." + t.Attrs[0]
		p, ok := paths[id]
		if !ok {
			switch rng.Intn(4) {
			case 1:
				p = pathre.Concat(pathre.Symbol(d.Root), pathre.AnyPath())
			case 2:
				p = pathre.Symbol(d.Root)
				for j := rng.Intn(3); j > 0; j-- {
					p = pathre.Concat(p, pathre.Wildcard())
				}
			case 3:
				y := d.Names[rng.Intn(len(d.Names))]
				p = pathre.Concat(pathre.Symbol(d.Root), pathre.AnyPath(),
					pathre.Union(pathre.Symbol(y), pathre.Symbol(t.Type)), pathre.AnyPath())
			}
			paths[id] = p
		}
		t.Path = p
		return t
	}
	out := &constraint.Set{}
	for _, k := range set.Keys {
		k.Target = rewrite(k.Context, k.Target)
		out.AddKey(k)
	}
	for _, in := range set.Incls {
		in.From = rewrite(in.Context, in.From)
		in.To = rewrite(in.Context, in.To)
		out.AddInclusion(in)
	}
	return out
}

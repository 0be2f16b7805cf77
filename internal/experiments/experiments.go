// Package experiments defines the instance families that regenerate
// the paper's evaluation artifacts — every column of the complexity
// tables in Figures 3 and 4, the worked examples of Figures 1 and 2,
// and the restriction results of Theorem 3.5 — as measurable
// workloads. cmd/benchtab sweeps the families and prints the empirical
// tables recorded in EXPERIMENTS.md; the repository-root benchmarks
// time representative points.
package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/bruteforce"
	"repro/internal/consistency"
	"repro/internal/constraint"
	"repro/internal/contentmodel"
	"repro/internal/dtd"
	"repro/internal/ilp"
	"repro/internal/reduction"
)

// Instance is one measurable consistency problem with its expected
// verdict (Unknown when the family carries no expectation).
type Instance struct {
	Name   string
	D      *dtd.DTD
	Set    *constraint.Set
	Expect consistency.Verdict
	// Opts carries per-instance overrides (bounded search budgets).
	Opts consistency.Options
}

// Check runs the consistency checker on the instance.
func (in Instance) Check() (consistency.Result, error) {
	opts := in.Opts
	opts.SkipWitness = true
	return consistency.Check(in.D, in.Set, opts)
}

// verdictOf converts a boolean yes-instance flag.
func verdictOf(yes bool) consistency.Verdict {
	if yes {
		return consistency.Consistent
	}
	return consistency.Inconsistent
}

// Fig3Unary builds the SAT(AC_{K,FK}) hard family: the Theorem 3.5(a)
// CNF reduction on random 3-CNF instances near the sat/unsat
// threshold, with n variables and ~4.3n clauses.
func Fig3Unary(rng *rand.Rand, vars int) Instance {
	f := reduction.RandomCNF(rng, vars, vars*4+vars/3, 3)
	yes, _ := reduction.SolveCNF(f)
	d, set := reduction.FromCNF(f)
	return Instance{
		Name:   fmt.Sprintf("cnf/n=%d", vars),
		D:      d,
		Set:    set,
		Expect: verdictOf(yes),
	}
}

// Fig3PDE builds the SAT(AC^{*,1}_{PK,FK}) family: the Theorem 3.1
// reduction on random prequadratic systems with the given number of
// variables (and as many rows and quads).
func Fig3PDE(rng *rand.Rand, vars int) (Instance, bool) {
	in := reduction.RandomPDE(rng, vars, vars, vars/2)
	want := reduction.SolvePDE(in, defaultILP())
	d, set, err := reduction.FromPDE(in)
	if err != nil {
		return Instance{}, false
	}
	inst := Instance{
		Name: fmt.Sprintf("pde/n=%d", vars),
		D:    d,
		Set:  set,
	}
	switch want {
	case ilp.Sat:
		inst.Expect = consistency.Consistent
	case ilp.Unsat:
		inst.Expect = consistency.Inconsistent
	default:
		return Instance{}, false
	}
	return inst, true
}

// Fig3Regular builds the SAT(AC^reg_{K,FK}) hard family: the Theorem
// 3.4(b) QBF reduction with m quantified variables.
func Fig3Regular(rng *rand.Rand, m int) Instance {
	q := reduction.RandomQBF(rng, m, m+1, 2)
	yes := reduction.SolveQBF(q)
	d, set := reduction.FromQBFRegular(q)
	return Instance{
		Name:   fmt.Sprintf("qbf-reg/m=%d", m),
		D:      d,
		Set:    set,
		Expect: verdictOf(yes),
	}
}

// Fig3MultiMulti builds AC^{*,*} instances (the undecidable cell):
// multi-attribute inclusions. Satisfiable and count-refutable variants
// exercise the two sound answers; the rest come back Unknown.
func Fig3MultiMulti(kind string) Instance {
	switch kind {
	case "sat":
		d := dtd.MustParse(`
<!ELEMENT db (a, b*)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ATTLIST a x CDATA #REQUIRED y CDATA #REQUIRED>
<!ATTLIST b u CDATA #REQUIRED v CDATA #REQUIRED>
`)
		set := constraint.MustParseSet("b[u,v] -> b\na[x,y] ⊆ b[u,v]")
		return Instance{
			Name: "multi/sat", D: d, Set: set,
			Expect: consistency.Consistent,
			Opts:   consistency.Options{BruteForce: bruteforce.Options{MaxNodes: 4}},
		}
	case "unsat":
		// Count conflict visible to the coordinate relaxation.
		d := dtd.MustParse(`
<!ELEMENT db (a, a, b)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ATTLIST a x CDATA #REQUIRED y CDATA #REQUIRED>
<!ATTLIST b u CDATA #REQUIRED v CDATA #REQUIRED>
`)
		set := constraint.MustParseSet("a[x,y] -> a\nb[u,v] -> b\na.x ⊆ b.u\na.y ⊆ b.v\nb.u -> b\nb.v -> b")
		return Instance{Name: "multi/refutable", D: d, Set: set, Expect: consistency.Inconsistent}
	default:
		// Satisfiable but only with a document larger than the search
		// bound: an honest Unknown.
		d := dtd.MustParse(`
<!ELEMENT db (a, a, a, a, a, a, a, a, b*)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ATTLIST a x CDATA #REQUIRED y CDATA #REQUIRED>
<!ATTLIST b u CDATA #REQUIRED v CDATA #REQUIRED>
`)
		set := constraint.MustParseSet("a[x,y] -> a\nb[u,v] -> b\na[x,y] ⊆ b[u,v]")
		return Instance{
			Name: "multi/open", D: d, Set: set,
			Expect: consistency.Unknown,
			Opts:   consistency.Options{BruteForce: bruteforce.Options{MaxNodes: 3}},
		}
	}
}

// Fig4Diophantine builds SAT(RC_{K,FK}) instances from the Theorem 4.1
// reduction: solvable linear equations are found by the exact absolute
// path, quadratic ones exercise the undecidable bounded-search path.
func Fig4Diophantine(kind string) Instance {
	switch kind {
	case "linear-sat":
		e := &reduction.QuadEquation{Vars: 1, LHS: []reduction.Monomial{{Coef: 2, Vars: []int{0}}}, Const: 4}
		d, set := reduction.FromQuadEquation(e)
		return Instance{Name: "dioph/2x=4", D: d, Set: set, Expect: consistency.Consistent}
	case "linear-unsat":
		e := &reduction.QuadEquation{Vars: 1, LHS: []reduction.Monomial{{Coef: 2, Vars: []int{0}}}, Const: 3}
		d, set := reduction.FromQuadEquation(e)
		return Instance{Name: "dioph/2x=3", D: d, Set: set, Expect: consistency.Inconsistent}
	default:
		e := &reduction.QuadEquation{
			Vars:  2,
			LHS:   []reduction.Monomial{{Coef: 1, Vars: []int{0, 1}}},
			RHS:   []reduction.Monomial{{Coef: 1, Vars: []int{0, 1}}},
			Const: 1,
		}
		d, set := reduction.FromQuadEquation(e)
		return Instance{
			Name: "dioph/xy=xy+1", D: d, Set: set,
			Expect: consistency.Unknown,
			Opts:   consistency.Options{BruteForce: bruteforce.Options{MaxNodes: 4, MaxShapes: 500, MaxPartitions: 500}},
		}
	}
}

// Fig4Hierarchical builds the SAT(HRC_{K,FK}) family: a library-style
// chain of n nested context types, each scope carrying a key and a
// consistent (or, when sat is false, counting-inconsistent) foreign
// key.
func Fig4Hierarchical(levels int, sat bool) Instance {
	d := dtd.New("l0")
	set := &constraint.Set{}
	for i := 0; i < levels; i++ {
		cur := fmt.Sprintf("l%d", i)
		next := fmt.Sprintf("l%d", i+1)
		item := fmt.Sprintf("item%d", i)
		holder := fmt.Sprintf("holder%d", i)
		// Content: two children of the next level (if any), two items,
		// one holder.
		var parts []string
		if i+1 < levels {
			parts = append(parts, next, next)
		}
		parts = append(parts, item, item, holder)
		d.Define(cur, refSeq(parts))
		d.Define(item, refSeq(nil), "v")
		d.Define(holder, refSeq(nil), "v")
		if !sat {
			// Two keyed items must inject into one holder value.
			set.AddKey(constraint.Key{Context: cur, Target: constraint.Target{Type: item, Attrs: []string{"v"}}})
		}
		set.AddForeignKey(constraint.Inclusion{
			Context: cur,
			From:    constraint.Target{Type: item, Attrs: []string{"v"}},
			To:      constraint.Target{Type: holder, Attrs: []string{"v"}},
		})
	}
	expect := consistency.Consistent
	if !sat {
		expect = consistency.Inconsistent
	}
	return Instance{
		Name:   fmt.Sprintf("hrc/levels=%d,sat=%v", levels, sat),
		D:      d,
		Set:    set,
		Expect: expect,
	}
}

// Fig4DLocal builds the SAT(2-HRC) hard family: the Theorem 4.4 QBF
// reduction with m quantifier levels.
func Fig4DLocal(rng *rand.Rand, m int) Instance {
	q := reduction.RandomQBF(rng, m, m+1, 2)
	yes := reduction.SolveQBF(q)
	d, set := reduction.FromQBFHierarchical(q)
	return Instance{
		Name:   fmt.Sprintf("qbf-hrc/m=%d", m),
		D:      d,
		Set:    set,
		Expect: verdictOf(yes),
	}
}

// Thm35SubsetSum builds the 2-constraint hard family: SUBSET-SUM with
// n values of the given bit width.
func Thm35SubsetSum(rng *rand.Rand, n int, maxVal uint64) Instance {
	in := reduction.RandomSubsetSum(rng, n, maxVal)
	yes := reduction.SolveSubsetSum(in)
	d, set := reduction.FromSubsetSum(in)
	return Instance{
		Name:   fmt.Sprintf("subsetsum/n=%d,max=%d", n, maxVal),
		D:      d,
		Set:    set,
		Expect: verdictOf(yes),
	}
}

// Thm35Tractable builds fixed-k fixed-depth instances of growing
// width: k = 3 constraints, depth 2, and `width` unconstrained sibling
// types — the NLOGSPACE-tractable restriction.
func Thm35Tractable(width int, sat bool) Instance {
	d := dtd.New("r")
	var parts []string
	for i := 0; i < width; i++ {
		f := fmt.Sprintf("f%d", i)
		d.Define(f, refSeq(nil), "w")
		parts = append(parts, f)
	}
	// The constrained core: a, a, b with b possibly too small.
	d.Define("a", refSeq(nil), "x")
	d.Define("b", refSeq(nil), "y")
	parts = append(parts, "a", "a", "b")
	if sat {
		parts = append(parts, "b")
	}
	d.Define("r", refSeq(parts))
	set := constraint.MustParseSet("a.x -> a\nb.y -> b\na.x ⊆ b.y")
	return Instance{
		Name:   fmt.Sprintf("fixedkd/width=%d,sat=%v", width, sat),
		D:      d,
		Set:    set,
		Expect: verdictOf(sat),
	}
}

// refSeq builds a concatenation of type references (ε for none).
func refSeq(names []string) *contentmodel.Expr {
	if len(names) == 0 {
		return contentmodel.Eps()
	}
	parts := make([]*contentmodel.Expr, len(names))
	for i, n := range names {
		parts[i] = contentmodel.Ref(n)
	}
	return contentmodel.NewSeq(parts...)
}

// defaultILP returns the solver options the reference PDE solver uses.
func defaultILP() ilp.Options { return ilp.Options{} }

// Samples returns small instances of every family above, the random
// ones drawn from rng: a corpus of specifications of every shape the
// paper's reductions produce.
func Samples(rng *rand.Rand) []Instance {
	out := []Instance{
		Fig3MultiMulti("sat"), Fig3MultiMulti("unsat"),
		Fig4Diophantine("linear-sat"), Fig4Diophantine("linear-unsat"), Fig4Diophantine("quadratic"),
	}
	for n := 2; n <= 6; n++ {
		out = append(out, Fig3Unary(rng, n), Thm35SubsetSum(rng, n, 512))
		if in, ok := Fig3PDE(rng, n); ok {
			out = append(out, in)
		}
	}
	for m := 1; m <= 3; m++ {
		out = append(out, Fig3Regular(rng, m), Fig4DLocal(rng, m))
	}
	for _, sat := range []bool{true, false} {
		for levels := 1; levels <= 12; levels++ {
			out = append(out, Fig4Hierarchical(levels, sat))
		}
		for _, width := range []int{2, 8, 32} {
			out = append(out, Thm35Tractable(width, sat))
		}
	}
	return out
}

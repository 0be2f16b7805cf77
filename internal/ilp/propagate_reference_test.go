package ilp

// This file keeps the full-sweep interval propagation that event-driven
// propagation replaced — every round re-examines every linear row and
// negates each GE/EQ row afresh — together with the search that ran on
// it, as a differential oracle. The event-driven propagator must leave
// the same bounds and result after every propagation, and whole solves
// must take the same search: verdict, values, nodes, branches,
// propagation rounds and depth.

import (
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

// propagateReference is the full-sweep propagation: every round
// re-examines every linear row, negating each GE/EQ row afresh, then
// every conditional and prequadratic constraint. It tightens lo/hi in
// place until a fixpoint, a conflict or the round budget.
func (sv *solver) propagateReference(lo, hi []int64) propResult {
	return sv.propagateReferenceRounds(lo, hi, maxPropRounds)
}

// propagateReferenceRounds is propagateReference stopped after the
// given number of rounds.
func (sv *solver) propagateReferenceRounds(lo, hi []int64, rounds int) propResult {
	n := len(lo)
	for v := 0; v < n; v++ {
		if hi[v] != noBound && lo[v] > hi[v] {
			return propConflict
		}
	}
	for round := 0; round < rounds; round++ {
		sv.stats.PropPasses++
		changed := false
		tighten := func(v Var, newLo, newHi int64, hasLo, hasHi bool) bool {
			if hasLo && newLo > lo[v] {
				lo[v] = newLo
				changed = true
			}
			if hasHi && (hi[v] == noBound || newHi < hi[v]) {
				hi[v] = newHi
				changed = true
			}
			return hi[v] == noBound || lo[v] <= hi[v]
		}

		for _, l := range sv.sys.Lins {
			if l.Rel == LE || l.Rel == EQ {
				if !sv.propagateLEReference(l.Terms, l.K, lo, hi, tighten) {
					return propConflict
				}
			}
			if l.Rel == GE || l.Rel == EQ {
				if !sv.propagateLEReference(negateTermsReference(l.Terms), -l.K, lo, hi, tighten) {
					return propConflict
				}
			}
		}

		for _, c := range sv.sys.Conds {
			ifMin := sumLower(c.If, lo)
			ifMax := sumUpper(c.If, hi)
			thenMin := sumLower(c.Then, lo)
			thenMax := sumUpper(c.Then, hi)
			switch {
			case ifMin > 0 && thenMax == 0:
				return propConflict
			case ifMin > 0:
				// Conclusion must be positive: if exactly one Then
				// variable can still be positive, force it to ≥ 1.
				if thenMin == 0 {
					free := -1
					for _, t := range c.Then {
						if hi[t.Var] == noBound || hi[t.Var] > 0 {
							if free >= 0 {
								free = -2
								break
							}
							free = int(t.Var)
						}
					}
					if free >= 0 {
						if !tighten(Var(free), 1, 0, true, false) {
							return propConflict
						}
					}
				}
			case thenMax == 0:
				// Premise must be zero: every If variable is 0.
				if ifMax > 0 {
					for _, t := range c.If {
						if !tighten(t.Var, 0, 0, false, true) {
							return propConflict
						}
					}
				}
			}
		}

		for _, q := range sv.sys.Quads {
			// x ≤ y·z. Upper bound on x from the factor uppers.
			if hi[q.Y] != noBound && hi[q.Z] != noBound {
				prod := mulSat(hi[q.Y], hi[q.Z])
				if prod >= satCap {
					sv.stats.Saturations++
				}
				if !tighten(q.X, 0, prod, false, prod < satCap) {
					return propConflict
				}
				if lo[q.X] > prod {
					return propConflict
				}
			}
			// Lower bounds on factors from a positive x.
			if lo[q.X] > 0 {
				if !tighten(q.Y, 1, 0, true, false) || !tighten(q.Z, 1, 0, true, false) {
					return propConflict
				}
				if hi[q.Z] != noBound && hi[q.Z] > 0 {
					need := ceilDiv(lo[q.X], hi[q.Z])
					if !tighten(q.Y, need, 0, true, false) {
						return propConflict
					}
				}
				if hi[q.Y] != noBound && hi[q.Y] > 0 {
					need := ceilDiv(lo[q.X], hi[q.Y])
					if !tighten(q.Z, need, 0, true, false) {
						return propConflict
					}
				}
			}
		}

		if !changed {
			return propOK
		}
	}
	return propOK
}

// propagateLEReference tightens bounds using Σ terms ≤ k through the
// round's tighten closure. It reports false on a conflict.
func (sv *solver) propagateLEReference(terms []Term, k int64, lo, hi []int64,
	tighten func(v Var, newLo, newHi int64, hasLo, hasHi bool) bool) bool {
	// minSum = Σ min over each term; track whether it is -∞.
	var minSum int64
	minInf := false
	for _, t := range terms {
		if t.Coef > 0 {
			minSum = addSat(minSum, mulSat(t.Coef, lo[t.Var]))
		} else {
			if hi[t.Var] == noBound {
				minInf = true
				continue
			}
			minSum = addSat(minSum, -mulSat(-t.Coef, hi[t.Var]))
		}
	}
	if minSum >= satCap || minSum <= -satCap {
		sv.stats.Saturations++
	}
	if !minInf && minSum > k {
		return false
	}
	for _, t := range terms {
		// Residual minimum of the other terms.
		restInf := minInf
		rest := minSum
		if t.Coef > 0 {
			rest -= mulSat(t.Coef, lo[t.Var])
		} else {
			if hi[t.Var] == noBound {
				// This term was the (an) infinite contributor; others
				// may still be infinite.
				restInf = otherNegUnboundedReference(terms, t.Var, hi)
				rest = minSumWithoutReference(terms, t.Var, lo, hi)
			} else {
				rest += mulSat(-t.Coef, hi[t.Var])
			}
		}
		if restInf {
			continue
		}
		budget := k - rest
		if t.Coef > 0 {
			// t.Coef * x ≤ budget → x ≤ floor(budget / coef).
			if budget < 0 {
				return false
			}
			if !tighten(t.Var, 0, budget/t.Coef, false, true) {
				return false
			}
		} else {
			// -|c|·x ≤ budget → x ≥ ceil(-budget/|c|).
			c := -t.Coef
			if need := ceilDiv(-budget, c); need > 0 {
				if !tighten(t.Var, need, 0, true, false) {
					return false
				}
			}
		}
	}
	return true
}

func otherNegUnboundedReference(terms []Term, skip Var, hi []int64) bool {
	for _, t := range terms {
		if t.Var != skip && t.Coef < 0 && hi[t.Var] == noBound {
			return true
		}
	}
	return false
}

func minSumWithoutReference(terms []Term, skip Var, lo, hi []int64) int64 {
	var sum int64
	for _, t := range terms {
		if t.Var == skip {
			continue
		}
		if t.Coef > 0 {
			sum = addSat(sum, mulSat(t.Coef, lo[t.Var]))
		} else if hi[t.Var] != noBound {
			sum = addSat(sum, -mulSat(-t.Coef, hi[t.Var]))
		}
	}
	return sum
}

func negateTermsReference(terms []Term) []Term {
	out := make([]Term, len(terms))
	for i, t := range terms {
		out[i] = Term{Var: t.Var, Coef: -t.Coef}
	}
	return out
}

// searchReference is the branch-and-bound search over
// propagateReference, as it ran before propagation became
// event-driven.
func (sv *solver) searchReference(lo, hi []int64, depth int) (Verdict, []int64) {
	sv.stats.Nodes++
	if depth > sv.stats.MaxDepth {
		sv.stats.MaxDepth = depth
	}
	// The root snapshot makes a long root propagation visible as work
	// in progress instead of a zero node count.
	if sv.opts.Progress != nil && (sv.stats.Nodes == 1 || sv.stats.Nodes&progressMask == 0) {
		sv.publishProgress(lo, hi, depth)
	}
	if sv.stats.Nodes > sv.opts.MaxNodes {
		sv.tainted = true
		return Unsat, nil // tainted Unsat becomes Unknown at the top
	}
	if sv.done != nil {
		if !sv.canceled && sv.stats.Nodes&ctxPollMask == 0 {
			select {
			case <-sv.done:
				sv.canceled = true
			default:
			}
		}
		if sv.canceled {
			sv.tainted = true
			return Unsat, nil // unwinds the whole tree; Unknown at the top
		}
	}
	switch sv.propagateReference(lo, hi) {
	case propConflict:
		return Unsat, nil
	case propTainted:
		return Unsat, nil // taint already recorded
	}

	// All variables fixed: evaluate directly.
	if allFixed(lo, hi) {
		if sv.sys.Eval(lo) == nil {
			return Sat, append([]int64(nil), lo...)
		}
		return Unsat, nil
	}

	// LP relaxation pruning and candidate generation. The exact
	// rational simplex is precise but not cheap, so deep in the tree
	// it runs only every lpStride levels; propagation covers the
	// in-between nodes.
	var point []*big.Rat
	if sv.lpWanted(depth) {
		feasible, pt := sv.lpCheck(lo, hi)
		if sv.opts.Progress != nil {
			// Publish after every simplex call so pivot counts surface
			// promptly even when the node cadence hasn't fired.
			sv.publishProgress(lo, hi, depth)
		}
		if !feasible {
			return Unsat, nil
		}
		point = pt
		if vals, ok := sv.roundedCandidate(point, lo, hi); ok {
			return Sat, vals
		}
	}

	branchLo, branchHi := cloneBounds(lo, hi)

	// 1. Branch on an undecided conditional: either the premise is
	// identically zero or the conclusion is ≥ 1.
	if ci := sv.undecidedCond(lo, hi); ci >= 0 {
		sv.stats.Branches++
		c := sv.sys.Conds[ci]
		// Branch A: premise = 0, i.e. every If variable is 0.
		aLo, aHi := cloneBounds(lo, hi)
		okA := true
		for _, t := range c.If {
			if aLo[t.Var] > 0 {
				okA = false
				break
			}
			aHi[t.Var] = 0
		}
		if okA {
			if v, vals := sv.searchReference(aLo, aHi, depth+1); v == Sat {
				return Sat, vals
			}
		}
		// Branch B: conclusion ≥ 1. With positive unit-ish
		// coefficients it is enough to try raising each Then variable
		// to ≥ 1 — but to stay exact for general positive
		// coefficients we instead force "some Then variable ≥ 1" by
		// trying each in turn.
		for _, t := range c.Then {
			bLo, bHi := cloneBounds(branchLo, branchHi)
			if bLo[t.Var] < 1 {
				bLo[t.Var] = 1
			}
			if bLo[t.Var] > bHi[t.Var] {
				continue
			}
			// Also remember the premise is positive on this branch?
			// Not needed: the conclusion holding satisfies the
			// conditional regardless of the premise.
			if v, vals := sv.searchReference(bLo, bHi, depth+1); v == Sat {
				return Sat, vals
			}
		}
		return Unsat, nil
	}

	// 2. Branch on an unresolved prequadratic constraint by splitting
	// the unfixed participant with the smallest domain (factors
	// first: fixing both factors makes the constraint linear).
	if qi := sv.unresolvedQuad(lo, hi); qi >= 0 {
		q := sv.sys.Quads[qi]
		v := Var(-1)
		for _, cand := range []Var{q.Y, q.Z, q.X} {
			if lo[cand] == hi[cand] {
				continue
			}
			if v < 0 || domain(lo, hi, cand) < domain(lo, hi, v) {
				v = cand
			}
		}
		if v >= 0 {
			return sv.branchValueReference(lo, hi, v, point, depth)
		}
	}

	// 3. Branch on an unfixed variable (LP-fractional first).
	v := sv.pickVar(lo, hi, point)
	return sv.branchValueReference(lo, hi, v, point, depth)
}

// branchValueReference is branchValue over searchReference.
func (sv *solver) branchValueReference(lo, hi []int64, v Var, point []*big.Rat, depth int) (Verdict, []int64) {
	sv.stats.Branches++
	var split int64
	if point != nil && point[v] != nil {
		f := ratFloor(point[v])
		split = clamp(f, lo[v], hiOr(hi[v], sv.opts.MaxValue))
	} else {
		split = lo[v]
	}
	// Both branches must shrink the domain: keep split strictly below a
	// finite upper bound so "v ≤ split" makes progress.
	if hi[v] != noBound && split >= hi[v] {
		split = hi[v] - 1
	}
	if split < lo[v] {
		split = lo[v]
	}
	// Branch A: v ≤ split.
	aLo, aHi := cloneBounds(lo, hi)
	if aHi[v] == noBound || aHi[v] > split {
		aHi[v] = split
	}
	if aLo[v] <= aHi[v] {
		if verd, vals := sv.searchReference(aLo, aHi, depth+1); verd == Sat {
			return Sat, vals
		}
	}
	// Branch B: v ≥ split+1, pruned at the cap. Pruning taints the
	// result unless the cap provably covers every solution.
	if split+1 > sv.opts.MaxValue {
		if !sv.capComplete {
			sv.tainted = true
		}
		return Unsat, nil
	}
	bLo, bHi := cloneBounds(lo, hi)
	if bLo[v] < split+1 {
		bLo[v] = split + 1
	}
	if bHi[v] != noBound && bLo[v] > bHi[v] {
		return Unsat, nil
	}
	if bHi[v] == noBound {
		bHi[v] = sv.opts.MaxValue
	}
	verd, vals := sv.searchReference(bLo, bHi, depth+1)
	return verd, vals
}

// solveReference is Solve on the reference search.
func solveReference(s *System, opts Options) Result {
	opts = opts.withDefaults()
	n := s.NumVars()
	sv := &solver{sys: s, opts: opts}
	if b := papadimitriouBound(s); b <= opts.MaxValue {
		sv.capComplete = true
	}
	lo := make([]int64, n)
	hi := make([]int64, n)
	for i := range hi {
		hi[i] = noBound
	}
	verdict, vals := sv.searchReference(lo, hi, 0)
	if verdict == Unsat && sv.tainted {
		verdict = Unknown
	}
	res := Result{Verdict: verdict, Stats: sv.stats}
	if verdict == Sat {
		res.Values = vals
	}
	return res
}

// randomPropSystem draws a small system mixing LE/GE/EQ rows with
// mixed-sign coefficients (a few near satCap), conditionals,
// prequadratic constraints, and variables left without an upper bound.
// Most rows hold at a planted point, so about half the systems are
// satisfiable and searches run deep before they are decided.
func randomPropSystem(rng *rand.Rand) *System {
	s := NewSystem()
	n := 2 + rng.Intn(6)
	vars := make([]Var, n)
	planted := make([]int64, n)
	for i := range vars {
		vars[i] = s.Var(string(rune('a' + i)))
		planted[i] = int64(rng.Intn(5))
	}
	coef := func() int64 {
		switch rng.Intn(24) {
		case 0:
			return satCap/3 + int64(rng.Intn(3))
		case 1:
			return -(satCap / 5)
		case 2:
			return 1 << 40
		}
		c := int64(rng.Intn(3) + 1)
		if rng.Intn(2) == 0 {
			c = -c
		}
		return c
	}
	for r := 1 + rng.Intn(6); r > 0; r-- {
		var terms []Term
		var at int64 // the row's value at the planted point
		for _, i := range rng.Perm(n)[:1+rng.Intn(min(3, n))] {
			terms = append(terms, T(coef(), vars[i]))
			at += terms[len(terms)-1].Coef * planted[i]
		}
		rel := Rel(rng.Intn(3))
		k := at
		switch {
		case rng.Intn(10) == 0:
			k = satCap / 2
		case rng.Intn(4) == 0:
			k = int64(rng.Intn(16) - 2)
		case rel == LE:
			k += int64(rng.Intn(3))
		case rel == GE:
			k -= int64(rng.Intn(3))
		}
		s.AddLinear(terms, rel, k)
	}
	for i := range vars {
		if rng.Intn(4) != 0 { // the rest keep a noBound upper
			s.AddLE([]Term{T(1, vars[i])}, planted[i]+int64(rng.Intn(5)))
		}
	}
	pos := func() []Term {
		var terms []Term
		for _, i := range rng.Perm(n)[:1+rng.Intn(min(2, n))] {
			terms = append(terms, T(int64(1+rng.Intn(2)), vars[i]))
		}
		return terms
	}
	for c := rng.Intn(3); c > 0; c-- {
		s.AddCond(pos(), pos())
	}
	for q := rng.Intn(3); q > 0; q-- {
		s.AddQuad(vars[rng.Intn(n)], vars[rng.Intn(n)], vars[rng.Intn(n)])
	}
	return s
}

// randomBounds draws starting bounds: small lower bounds, and uppers
// that are absent, tight or loose.
func randomBounds(rng *rand.Rand, n int) ([]int64, []int64) {
	lo, hi := make([]int64, n), make([]int64, n)
	for v := range lo {
		lo[v] = int64(rng.Intn(2))
		switch rng.Intn(3) {
		case 0:
			hi[v] = noBound
		case 1:
			hi[v] = lo[v] + int64(rng.Intn(3))
		default:
			hi[v] = lo[v] + int64(rng.Intn(1<<20))
		}
	}
	return lo, hi
}

// propagateBoth runs one event-driven propagation on sv and one
// reference propagation on copies of the same bounds, and fails unless
// the results and the bounds left behind agree.
func propagateBoth(t *testing.T, what string, sv *solver, lo, hi []int64) propResult {
	t.Helper()
	ref := &solver{sys: sv.sys, opts: sv.opts}
	rlo, rhi := cloneBounds(lo, hi)
	passes := sv.stats.PropPasses
	got, want := sv.propagate(lo, hi), ref.propagateReference(rlo, rhi)
	if got != want || !slices.Equal(lo, rlo) || !slices.Equal(hi, rhi) {
		t.Fatalf("%s:\n%s\n got %v lo=%v hi=%v\nwant %v lo=%v hi=%v", what, sv.sys, got, lo, hi, want, rlo, rhi)
	}
	if got, want := sv.stats.PropPasses-passes, ref.stats.PropPasses; got != want {
		t.Fatalf("%s:\n%s\nevent-driven propagation took %d rounds, the reference %d", what, sv.sys, got, want)
	}
	return got
}

// diveBoth walks one random root-to-leaf path: propagate at the root
// (full sweep, no index), then repeatedly tighten one variable the way
// a branch does, seed the child from its parent's fixpoint status, and
// propagate again — comparing against the reference at every step.
func diveBoth(t *testing.T, what string, rng *rand.Rand, sv *solver, lo, hi []int64) {
	t.Helper()
	for depth := 0; depth < 8; depth++ {
		if propagateBoth(t, what, sv, lo, hi) != propOK {
			return
		}
		v := Var(rng.Intn(len(lo)))
		if lo[v] == hi[v] {
			return
		}
		fix := sv.fixpoint
		lo, hi = cloneBounds(lo, hi)
		if rng.Intn(2) == 0 {
			hi[v] = lo[v] // v ≤ split
		} else {
			lo[v]++ // v ≥ split+1
		}
		sv.enterChild(fix)
		sv.mark(v)
	}
}

// TestPropagateMatchesReference compares single propagations: from the
// root's full sweep, from an all-dirty child, and down random branch
// paths whose children start from a fixpoint (only the branched
// variable's rows dirty) or from a round-capped parent (all dirty).
func TestPropagateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		s := randomPropSystem(rng)
		n := s.NumVars()

		lo, hi := randomBounds(rng, n)
		sv := &solver{sys: s, halves: splitHalves(s.Lins)}
		diveBoth(t, "root dive", rng, sv, lo, hi)

		lo, hi = randomBounds(rng, n)
		sv = &solver{sys: s, halves: splitHalves(s.Lins)}
		sv.enterChild(false)
		diveBoth(t, "all-dirty dive", rng, sv, lo, hi)
	}
}

// randomChainSystem is randomPropSystem plus a chain of difference
// rows over its variables, listed against the direction upper bounds
// flow along it, so the root's sweeps move bounds one link per round
// and many roots run three rounds or more.
func randomChainSystem(rng *rand.Rand) *System {
	s := randomPropSystem(rng)
	chain := rng.Perm(s.NumVars())
	for i := len(chain) - 1; i > 0; i-- {
		// x_i − x_{i−1} ≤ c: an upper bound on x_{i−1} caps x_i, and a
		// lower bound on x_i raises x_{i−1}.
		s.AddLE([]Term{T(1, Var(chain[i])), T(-1, Var(chain[i-1]))}, int64(rng.Intn(3)))
	}
	return s
}

// TestEventDrivenRootMatchesReference propagates roots of chained
// systems: every root must leave the full sweep's bounds, result and
// round count, and must build the variable index exactly when its
// second round tightened a bound, so a root that ends in round two
// builds nothing.
func TestEventDrivenRootMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	long := 0
	for i := 0; i < 10000; i++ {
		s := randomChainSystem(rng)
		// Loose starting bounds leave the chain rounds to run.
		lo, hi := make([]int64, s.NumVars()), make([]int64, s.NumVars())
		for v := range hi {
			hi[v] = noBound
			if rng.Intn(2) == 0 {
				hi[v] = int64(rng.Intn(1 << 10))
			}
		}
		// The reference after one and after two rounds: any bound that
		// differs was tightened in round two.
		ref := &solver{sys: s}
		lo1, hi1 := cloneBounds(lo, hi)
		tightened2 := false
		if ref.propagateReferenceRounds(lo1, hi1, 1) == propOK {
			lo2, hi2 := cloneBounds(lo1, hi1)
			ref.propagateReferenceRounds(lo2, hi2, 1)
			tightened2 = !slices.Equal(lo1, lo2) || !slices.Equal(hi1, hi2)
		}
		sv := &solver{sys: s, halves: splitHalves(s.Lins)}
		propagateBoth(t, "chained root", sv, lo, hi)
		if built := sv.halfOff != nil; built != tightened2 {
			t.Fatalf("%s\nindex built %v, round two tightened %v", s, built, tightened2)
		}
		if sv.stats.PropPasses >= 3 {
			long++
		}
	}
	if long < 2000 {
		t.Fatalf("only %d of 10000 roots ran three rounds or more", long)
	}
}

// TestMulSatMatchesBig compares mulSat with the exact product clamped
// to ±satCap: at the edge of its unchecked range (|a|, |b| < 2^28), at
// and around ±satCap, at zero, and on random pairs of every magnitude.
func TestMulSatMatchesBig(t *testing.T) {
	lim := big.NewInt(satCap)
	check := func(a, b int64) {
		p := new(big.Int).Mul(big.NewInt(a), big.NewInt(b))
		if p.Cmp(lim) > 0 {
			p.Set(lim)
		} else if p.CmpAbs(lim) > 0 {
			p.Neg(lim)
		}
		if got := mulSat(a, b); got != p.Int64() {
			t.Fatalf("mulSat(%d, %d) = %d, want %d", a, b, got, p.Int64())
		}
	}
	var edges []int64
	for _, x := range []int64{0, 1, 2, 3, mulFast - 1, mulFast, mulFast + 1,
		satCap/mulFast - 1, satCap / mulFast, satCap/mulFast + 1,
		satCap/3 + 1, satCap - 1, satCap, satCap + 1, noBound} {
		edges = append(edges, x, -x)
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	rng := rand.New(rand.NewSource(4))
	draw := func() int64 {
		x := rng.Int63n(int64(1) << rng.Intn(63))
		if rng.Intn(2) == 0 {
			x = -x
		}
		return x
	}
	for i := 0; i < 200000; i++ {
		check(draw(), draw())
	}
}

// TestSolveMatchesReference compares whole solves on random systems
// under each relaxation mode and under node and value caps that cut
// searches short.
func TestSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	modes := []Options{
		{MaxValue: 64, MaxNodes: 3000},
		{MaxValue: 64, MaxNodes: 3000, LP: LPAlways},
		{MaxValue: 64, MaxNodes: 3000, LP: LPNever},
		{MaxValue: 6, MaxNodes: 50},
	}
	for i := 0; i < 6000; i++ {
		s := randomPropSystem(rng)
		requireSameSolve(t, s, modes[i%len(modes)])
	}
}

// requireSameSolve fails unless Solve and the reference solve take the
// same search to the same answer.
func requireSameSolve(t *testing.T, s *System, opts Options) Result {
	t.Helper()
	got, want := Solve(s, opts), solveReference(s, opts)
	if got.Verdict != want.Verdict || !slices.Equal(got.Values, want.Values) ||
		got.Stats.Nodes != want.Stats.Nodes || got.Stats.Branches != want.Stats.Branches ||
		got.Stats.PropPasses != want.Stats.PropPasses || got.Stats.MaxDepth != want.Stats.MaxDepth ||
		got.Stats.LPCalls != want.Stats.LPCalls || got.Stats.Pivots != want.Stats.Pivots {
		t.Fatalf("%s\nunder %+v:\n got %v %v %+v\nwant %v %v %+v", s, opts,
			got.Verdict, got.Values, got.Stats, want.Verdict, want.Values, want.Stats)
	}
	return got
}

// TestPropagateRoundCapMatchesReference drives systems whose
// propagation converges one unit per round (x ≤ y, y ≤ x−1 from a large
// cap), so the root stops at maxPropRounds with work left over. Two
// independent chains make the children of such a node depend on rows
// their branch never touched.
func TestPropagateRoundCapMatchesReference(t *testing.T) {
	for _, caps := range [][2]int64{{200, 300}, {150, 1000}, {500, 140}} {
		s := NewSystem()
		x, y, u, w := s.Var("x"), s.Var("y"), s.Var("u"), s.Var("w")
		s.AddVarLE(x, y)
		s.AddLE([]Term{T(1, y), T(-1, x)}, -1)
		s.AddLE([]Term{T(1, x)}, caps[0])
		s.AddVarLE(u, w)
		s.AddLE([]Term{T(1, w), T(-1, u)}, -1)
		s.AddLE([]Term{T(1, u)}, caps[1])

		sv := &solver{sys: s, halves: splitHalves(s.Lins)}
		lo, hi := make([]int64, 4), []int64{noBound, noBound, noBound, noBound}
		if propagateBoth(t, "round-capped root", sv, lo, hi) != propOK || sv.fixpoint {
			t.Fatalf("caps %v: root propagation should stop at the round budget", caps)
		}
		for _, v := range []Var{x, w} {
			clo, chi := cloneBounds(lo, hi)
			clo[v]++
			csv := &solver{sys: s, halves: sv.halves, stats: sv.stats}
			csv.enterChild(false)
			csv.mark(v)
			propagateBoth(t, "child of a round-capped parent", csv, clo, chi)
		}
		for _, opts := range []Options{{}, {LP: LPAlways}, {LP: LPNever, MaxValue: 400}} {
			res := requireSameSolve(t, s, opts)
			if res.Verdict == Sat {
				t.Fatalf("caps %v: x ≤ y ≤ x−1 is unsatisfiable, got %v", caps, res.Verdict)
			}
		}
	}
}

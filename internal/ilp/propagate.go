package ilp

import (
	"math/big"
	"math/bits"
)

// propResult is the outcome of a propagation pass.
type propResult int

const (
	propOK propResult = iota
	propConflict
	propTainted
)

// satCap is the saturation threshold for interval arithmetic; bounds
// at or above it are treated as "effectively infinite" but distinct
// from the noBound sentinel to keep arithmetic overflow-free.
const satCap = int64(1) << 56

// maxPropRounds bounds fixpoint iteration. Slow unit-at-a-time
// convergence (e.g. x ≤ y, y ≤ x-1 from a huge cap) is left to the
// search rather than ground out here.
const maxPropRounds = 60

// half is one ≤ half of a linear row: sign·Σ terms ≤ k over the row's
// own terms. An LE row is one half of sign 1, a GE row one half of
// sign −1, and an EQ row both.
type half struct {
	terms   []Term
	sign, k int64
}

// splitHalves splits every linear row into its ≤ halves, in row order
// with a row's LE half before its GE half — the order propagation
// visits them in.
func splitHalves(lins []Linear) []half {
	nh := 0
	for _, l := range lins {
		if l.Rel == EQ {
			nh++
		}
		nh++
	}
	out := make([]half, 0, nh)
	for _, l := range lins {
		if l.Rel == LE || l.Rel == EQ {
			out = append(out, half{terms: l.Terms, sign: 1, k: l.K})
		}
		if l.Rel == GE || l.Rel == EQ {
			out = append(out, half{terms: l.Terms, sign: -1, k: -l.K})
		}
	}
	return out
}

// buildHalfIndex builds the variable→half index in CSR form: the
// halves whose terms mention v are halfIdx[halfOff[v]:halfOff[v+1]].
// Offsets and indices share one allocation.
func (sv *solver) buildHalfIndex() {
	n, total := sv.sys.NumVars(), 0
	for _, h := range sv.halves {
		total += len(h.terms)
	}
	slab := make([]int32, n+1+total)
	off, idx := slab[:n+1], slab[n+1:]
	for _, h := range sv.halves {
		for _, t := range h.terms {
			off[t.Var+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	// Fill each variable's run back to front, which leaves off[v+1]
	// at the start of v's run; shifting by one makes it v's offset.
	for i := len(sv.halves) - 1; i >= 0; i-- {
		for _, t := range sv.halves[i].terms {
			off[t.Var+1]--
			idx[off[t.Var+1]] = int32(i)
		}
	}
	copy(off, off[1:])
	off[n] = int32(total)
	sv.halfOff, sv.halfIdx = off, idx
	sv.dirty = make([]uint64, (len(sv.halves)+63)/64)
}

// enterChild prepares propagation for a child node whose bounds are
// its parent's propagated bounds with some variables tightened; the
// caller marks those variables next. When the parent's propagation
// reached a fixpoint, every other half would tighten nothing, so only
// the marked ones start dirty; a parent stopped by the round budget
// leaves unfinished work anywhere, so its children start all-dirty.
// The index is built here, on the first child, so a system decided at
// the root never pays for it.
func (sv *solver) enterChild(parentFixpoint bool) {
	if sv.halfOff == nil {
		sv.buildHalfIndex()
	}
	if parentFixpoint {
		clear(sv.dirty)
	} else {
		sv.markAll()
	}
}

// markAll makes every half dirty.
func (sv *solver) markAll() {
	for i := range sv.dirty {
		sv.dirty[i] = ^uint64(0)
	}
	if r := len(sv.halves) % 64; r != 0 {
		sv.dirty[len(sv.dirty)-1] = 1<<r - 1
	}
}

// mark makes every half mentioning v dirty. The root's first two
// rounds visit every half, so before the index exists there is nothing
// to mark, except in the root's second round: its first tightening
// builds the index, so the rounds after it know where to go on.
func (sv *solver) mark(v Var) {
	if sv.halfOff == nil {
		if !sv.indexOnMark {
			return
		}
		sv.buildHalfIndex()
	}
	for _, h := range sv.halfIdx[sv.halfOff[v]:sv.halfOff[v+1]] {
		sv.dirty[h>>6] |= 1 << (h & 63)
	}
}

// nextDirty returns the first dirty half at or after i, or -1.
func (sv *solver) nextDirty(i int) int {
	w := i >> 6
	if w >= len(sv.dirty) {
		return -1
	}
	word := sv.dirty[w] &^ (1<<(i&63) - 1)
	for word == 0 {
		w++
		if w == len(sv.dirty) {
			return -1
		}
		word = sv.dirty[w]
	}
	return w<<6 | bits.TrailingZeros64(word)
}

// propagate tightens lo/hi in place until a fixpoint, a conflict or
// the round budget, and records in sv.fixpoint whether it reached a
// fixpoint. It is sound: it never removes integer solutions.
//
// Each round walks the linear halves in order, then the conditionals,
// then the prequadratic constraints. A half's visit is a pure function
// of its variables' bounds, so a half none of whose variables changed
// since its last visit would tighten nothing and find no conflict:
// rounds skip such clean halves. The root's first two rounds visit
// every half without the variable index: most roots end there, and
// they build nothing. A root that tightens something in its second
// round builds the index then, and goes on from the halves of the
// variables that round tightened; every other half was visited after
// its variables last moved.
func (sv *solver) propagate(lo, hi []int64) propResult {
	sv.fixpoint = false
	n := len(lo)
	for v := 0; v < n; v++ {
		if hi[v] != noBound && lo[v] > hi[v] {
			return propConflict
		}
	}
	sv.lo, sv.hi = lo, hi
	root := sv.halfOff == nil
	for round := 0; round < maxPropRounds; round++ {
		sv.stats.PropPasses++
		sv.changed = false
		if root && round < 2 {
			sv.indexOnMark = round == 1
			for i := range sv.halves {
				if !sv.propagateLE(sv.halves[i]) {
					return propConflict
				}
			}
		} else {
			for i := sv.nextDirty(0); i >= 0; i = sv.nextDirty(i + 1) {
				sv.dirty[i>>6] &^= 1 << (i & 63)
				if !sv.propagateLE(sv.halves[i]) {
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
						if !sv.tightenLo(Var(free), 1) {
							return propConflict
						}
					}
				}
			case thenMax == 0:
				// Premise must be zero: every If variable is 0.
				if ifMax > 0 {
					for _, t := range c.If {
						if !sv.tightenHi(t.Var, 0) {
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
				} else if !sv.tightenHi(q.X, prod) {
					return propConflict
				}
				if lo[q.X] > prod {
					return propConflict
				}
			}
			// Lower bounds on factors from a positive x.
			if lo[q.X] > 0 {
				if !sv.tightenLo(q.Y, 1) || !sv.tightenLo(q.Z, 1) {
					return propConflict
				}
				if hi[q.Z] != noBound && hi[q.Z] > 0 {
					need := ceilDiv(lo[q.X], hi[q.Z])
					if !sv.tightenLo(q.Y, need) {
						return propConflict
					}
				}
				if hi[q.Y] != noBound && hi[q.Y] > 0 {
					need := ceilDiv(lo[q.X], hi[q.Y])
					if !sv.tightenLo(q.Z, need) {
						return propConflict
					}
				}
			}
		}

		sv.indexOnMark = false
		if !sv.changed {
			sv.fixpoint = true
			return propOK
		}
	}
	return propOK
}

// tightenLo raises v's lower bound to at least x, marking v's halves
// when it moves, and reports whether v's interval is still nonempty.
func (sv *solver) tightenLo(v Var, x int64) bool {
	if x > sv.lo[v] {
		sv.lo[v] = x
		sv.changed = true
		sv.mark(v)
	}
	return sv.hi[v] == noBound || sv.lo[v] <= sv.hi[v]
}

// tightenHi lowers v's upper bound to at most x, marking v's halves
// when it moves, and reports whether v's interval is still nonempty.
func (sv *solver) tightenHi(v Var, x int64) bool {
	if sv.hi[v] == noBound || x < sv.hi[v] {
		sv.hi[v] = x
		sv.changed = true
		sv.mark(v)
	}
	return sv.hi[v] == noBound || sv.lo[v] <= sv.hi[v]
}

// propagateLE tightens bounds using the half sign·Σ terms ≤ k. It
// reports false on a conflict.
func (sv *solver) propagateLE(h half) bool {
	terms, sign, k, lo, hi := h.terms, h.sign, h.k, sv.lo, sv.hi
	sv.visits++
	// minSum = Σ min over each term; track whether it is -∞.
	var minSum int64
	minInf := false
	for _, t := range terms {
		if c := sign * t.Coef; c > 0 {
			minSum = addSat(minSum, mulSat(c, lo[t.Var]))
		} else {
			if hi[t.Var] == noBound {
				minInf = true
				continue
			}
			minSum = addSat(minSum, -mulSat(-c, hi[t.Var]))
		}
	}
	if minSum >= satCap || minSum <= -satCap {
		sv.stats.Saturations++
	}
	if !minInf && minSum > k {
		return false
	}
	for _, t := range terms {
		c := sign * t.Coef
		// Residual minimum of the other terms.
		restInf := minInf
		rest := minSum
		if c > 0 {
			rest -= mulSat(c, lo[t.Var])
		} else {
			if hi[t.Var] == noBound {
				// This term was the (an) infinite contributor; others
				// may still be infinite.
				restInf = otherNegUnbounded(h, t.Var, hi)
				rest = minSumWithout(h, t.Var, lo, hi)
			} else {
				rest += mulSat(-c, hi[t.Var])
			}
		}
		if restInf {
			continue
		}
		budget := k - rest
		if c > 0 {
			// c·x ≤ budget → x ≤ floor(budget / c).
			if budget < 0 {
				return false
			}
			if !sv.tightenHi(t.Var, budget/c) {
				return false
			}
		} else {
			// -|c|·x ≤ budget → x ≥ ceil(-budget/|c|).
			if need := ceilDiv(-budget, -c); need > 0 {
				if !sv.tightenLo(t.Var, need) {
					return false
				}
			}
		}
	}
	return true
}

// otherNegUnbounded reports whether a term of h other than skip's has
// a negative signed coefficient and no upper bound.
func otherNegUnbounded(h half, skip Var, hi []int64) bool {
	for _, t := range h.terms {
		if t.Var != skip && h.sign*t.Coef < 0 && hi[t.Var] == noBound {
			return true
		}
	}
	return false
}

// minSumWithout is the minimum of h's signed sum without skip's term,
// leaving out terms unbounded below.
func minSumWithout(h half, skip Var, lo, hi []int64) int64 {
	var sum int64
	for _, t := range h.terms {
		if t.Var == skip {
			continue
		}
		if c := h.sign * t.Coef; c > 0 {
			sum = addSat(sum, mulSat(c, lo[t.Var]))
		} else if hi[t.Var] != noBound {
			sum = addSat(sum, -mulSat(-c, hi[t.Var]))
		}
	}
	return sum
}

// sumLower returns the minimum of Σ terms (positive coefficients) under
// the bounds.
func sumLower(terms []Term, lo []int64) int64 {
	var sum int64
	for _, t := range terms {
		sum = addSat(sum, mulSat(t.Coef, lo[t.Var]))
	}
	return sum
}

// sumUpper returns the maximum of Σ terms (positive coefficients), with
// satCap standing in for infinity.
func sumUpper(terms []Term, hi []int64) int64 {
	var sum int64
	for _, t := range terms {
		if hi[t.Var] == noBound {
			return satCap
		}
		sum = addSat(sum, mulSat(t.Coef, hi[t.Var]))
	}
	return sum
}

// mulFast bounds the factors mulSat multiplies without a check: when
// both are below it in magnitude, the product is below satCap.
const mulFast = int64(1) << 28

// mulSat returns a·b, saturated at ±satCap.
func mulSat(a, b int64) int64 {
	if -mulFast < a && a < mulFast && -mulFast < b && b < mulFast {
		return a * b
	}
	if a == 0 || b == 0 {
		return 0
	}
	neg := (a < 0) != (b < 0)
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	if a > satCap/b {
		if neg {
			return -satCap
		}
		return satCap
	}
	if neg {
		return -a * b
	}
	return a * b
}

func addSat(a, b int64) int64 {
	s := a + b
	if s > satCap {
		return satCap
	}
	if s < -satCap {
		return -satCap
	}
	return s
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("ilp: ceilDiv by nonpositive")
	}
	if a <= 0 {
		return -((-a) / b)
	}
	return (a + b - 1) / b
}

// papadimitriouBound returns an upper bound B such that a pure linear
// system that is satisfiable has a solution with all values ≤ B
// (Papadimitriou 1981: B = n·(m·a)^{2m+1}), or noBound when the bound
// overflows or the system has prequadratic constraints (whose
// solution-size bound is not single-exponential). Searching values up
// to B is then complete, so Unsat verdicts under a cap ≥ B are exact.
func papadimitriouBound(s *System) int64 {
	if len(s.Quads) > 0 {
		return noBound
	}
	n := int64(s.NumVars())
	// Conditionals case-split into one extra row each.
	m := int64(len(s.Lins)+len(s.Conds)) + 1
	var amax int64 = 1
	consider := func(v int64) {
		if v < 0 {
			v = -v
		}
		if v > amax {
			amax = v
		}
	}
	for _, l := range s.Lins {
		consider(l.K)
		for _, t := range l.Terms {
			consider(t.Coef)
		}
	}
	for _, c := range s.Conds {
		for _, t := range c.If {
			consider(t.Coef)
		}
		for _, t := range c.Then {
			consider(t.Coef)
		}
	}
	base := new(big.Int).Mul(big.NewInt(m), big.NewInt(amax))
	exp := new(big.Int).Exp(base, big.NewInt(2*m+1), nil)
	bound := new(big.Int).Mul(big.NewInt(n), exp)
	if !bound.IsInt64() || bound.Int64() >= satCap {
		return noBound
	}
	return bound.Int64()
}

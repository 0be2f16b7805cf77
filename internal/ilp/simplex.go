package ilp

import (
	"math/big"
)

// lpRow is one row of an LP feasibility problem in the internal
// Σ coef·x ⋈ k form over the original system variables. Constants are
// machine integers (every constructor has an integral right-hand
// side), which is what lets the int64 fast path share the row list
// with the exact big.Rat simplex.
type lpRow struct {
	terms []Term
	rel   Rel
	k     int64
}

// lpFeasible decides feasibility of the rational relaxation
//
//	{ x ∈ ℚ^n : rows hold, lo ≤ x ≤ hi }
//
// with hi entries of noBound meaning +∞. It returns a feasible point
// when one exists. The implementation is a dense phase-1 primal
// simplex on exact rationals with Bland's rule, which cannot cycle, so
// the procedure always terminates. When done fires (polled every
// lpPollMask+1 pivots) it gives up and reports infeasible; the caller
// tells the two apart by polling done itself.
func lpFeasible(n int, rows []lpRow, lo, hi []int64, stats *Stats, done <-chan struct{}) (bool, []*big.Rat) {
	// Assemble the standard-form tableau. Variables: n originals, then
	// one slack per inequality row, then one artificial per row that
	// needs one. Bounds become extra rows.
	type stdRow struct {
		coefs map[int]*big.Rat // column -> coefficient
		b     *big.Rat
	}
	var std []stdRow
	addRow := func(terms []Term, rel Rel, k int64) {
		coefs := map[int]*big.Rat{}
		for _, t := range terms {
			c := coefs[int(t.Var)]
			if c == nil {
				c = new(big.Rat)
				coefs[int(t.Var)] = c
			}
			c.Add(c, new(big.Rat).SetInt64(t.Coef))
		}
		switch rel {
		case LE:
			std = append(std, stdRow{coefs: coefs, b: ratInt(k)})
			std[len(std)-1].coefs[-1] = ratInt(1) // marker: needs slack +1
		case GE:
			std = append(std, stdRow{coefs: coefs, b: ratInt(k)})
			std[len(std)-1].coefs[-1] = ratInt(-1) // marker: slack -1
		case EQ:
			std = append(std, stdRow{coefs: coefs, b: ratInt(k)})
			std[len(std)-1].coefs[-1] = ratInt(0) // no slack
		}
	}
	for _, r := range rows {
		addRow(r.terms, r.rel, r.k)
	}
	for i := 0; i < n; i++ {
		if lo[i] > 0 {
			addRow([]Term{T(1, Var(i))}, GE, lo[i])
		}
		if hi[i] != noBound {
			addRow([]Term{T(1, Var(i))}, LE, hi[i])
		}
	}

	m := len(std)
	if m == 0 {
		pt := make([]*big.Rat, n)
		for i := range pt {
			pt[i] = ratInt(max64(0, lo[i]))
		}
		return true, pt
	}

	// Column layout: [0, n) originals; [n, n+m) slacks (unused slots
	// for EQ rows); [n+m, n+2m) artificials (unused when the slack can
	// serve as the basis column).
	cols := n + 2*m
	a := make([][]*big.Rat, m)
	b := make([]*big.Rat, m)
	basis := make([]int, m)
	artificial := make([]bool, cols)
	for i := range a {
		a[i] = make([]*big.Rat, cols)
		for j := range a[i] {
			a[i][j] = new(big.Rat)
		}
	}
	for i, r := range std {
		slackSign := r.coefs[-1]
		delete(r.coefs, -1)
		for j, c := range r.coefs {
			a[i][j].Set(c)
		}
		b[i] = new(big.Rat).Set(r.b)
		// Normalize to b ≥ 0.
		neg := b[i].Sign() < 0
		if neg {
			b[i].Neg(b[i])
			for j := 0; j < n; j++ {
				a[i][j].Neg(a[i][j])
			}
			slackSign = new(big.Rat).Neg(slackSign)
		}
		slackCol := n + i
		artCol := n + m + i
		switch slackSign.Sign() {
		case 1: // +slack: slack can be the initial basic variable
			a[i][slackCol] = ratInt(1)
			basis[i] = slackCol
		case -1: // -surplus + artificial
			a[i][slackCol] = ratInt(-1)
			a[i][artCol] = ratInt(1)
			artificial[artCol] = true
			basis[i] = artCol
		default: // equality: artificial only
			a[i][artCol] = ratInt(1)
			artificial[artCol] = true
			basis[i] = artCol
		}
	}

	// Phase-1 objective: minimize the sum of artificials. The reduced
	// cost row z[j] = Σ_{i: basis[i] artificial} a[i][j] and objective
	// obj = Σ_{i: basis[i] artificial} b[i] are computed once and then
	// maintained incrementally through the pivots, like any other
	// tableau row.
	z := make([]*big.Rat, cols)
	for j := range z {
		z[j] = new(big.Rat)
	}
	obj := new(big.Rat)
	for i := range a {
		if artificial[basis[i]] {
			for j := 0; j < cols; j++ {
				if a[i][j].Sign() != 0 {
					z[j].Add(z[j], a[i][j])
				}
			}
			obj.Add(obj, b[i])
		}
	}
	for i := range basis {
		z[basis[i]].SetInt64(0)
	}

	tmp := new(big.Rat)
	for pivots := 0; ; pivots++ {
		if obj.Sign() == 0 {
			break
		}
		if lpCanceled(done, pivots) {
			return false, nil
		}
		// Bland's rule: entering column = smallest index with positive
		// reduced cost (minimization of Σ artificials: improving
		// columns are those with z[j] > 0) that is not artificial.
		enter := -1
		for j := 0; j < n+m; j++ {
			if z[j].Sign() > 0 {
				enter = j
				break
			}
		}
		if enter < 0 {
			// Optimal with positive objective: infeasible.
			return false, nil
		}
		// Ratio test, Bland tie-break on smallest basis index.
		leave := -1
		best := new(big.Rat)
		for i := 0; i < m; i++ {
			if a[i][enter].Sign() <= 0 {
				continue
			}
			ratio := new(big.Rat).Quo(b[i], a[i][enter])
			if leave < 0 || ratio.Cmp(best) < 0 ||
				(ratio.Cmp(best) == 0 && basis[i] < basis[leave]) {
				leave = i
				best = ratio
			}
		}
		if leave < 0 {
			// Unbounded improving direction in phase 1 cannot happen
			// (objective is bounded below by 0); defensive stop.
			return false, nil
		}
		if stats != nil {
			stats.Pivots++
		}
		pivot(a, b, basis, leave, enter)
		// Update the objective row: z -= z[enter] · (pivot row), which
		// zeroes z[enter] and keeps all basic reduced costs at 0.
		f := new(big.Rat).Set(z[enter])
		if f.Sign() != 0 {
			for j := 0; j < cols; j++ {
				if a[leave][j].Sign() == 0 {
					continue
				}
				tmp.Mul(f, a[leave][j])
				z[j].Sub(z[j], tmp)
			}
			tmp.Mul(f, b[leave])
			obj.Sub(obj, tmp)
		}
	}

	// Feasible: read the point off the basis.
	pt := make([]*big.Rat, n)
	for i := range pt {
		pt[i] = new(big.Rat)
	}
	for i, bv := range basis {
		if bv < n {
			pt[bv].Set(b[i])
		}
	}
	return true, pt
}

// pivot performs a standard tableau pivot making column enter basic in
// row leave.
func pivot(a [][]*big.Rat, b []*big.Rat, basis []int, leave, enter int) {
	p := new(big.Rat).Set(a[leave][enter])
	inv := new(big.Rat).Inv(p)
	for j := range a[leave] {
		a[leave][j].Mul(a[leave][j], inv)
	}
	b[leave].Mul(b[leave], inv)
	for i := range a {
		if i == leave || a[i][enter].Sign() == 0 {
			continue
		}
		f := new(big.Rat).Set(a[i][enter])
		for j := range a[i] {
			if a[leave][j].Sign() == 0 {
				continue
			}
			t := new(big.Rat).Mul(f, a[leave][j])
			a[i][j].Sub(a[i][j], t)
		}
		t := new(big.Rat).Mul(f, b[leave])
		b[i].Sub(b[i], t)
	}
	basis[leave] = enter
}

// lpPollMask spaces the cancellation polls inside one relaxation: both
// simplex loops check the solve's context whenever their pivot count
// satisfies pivots&lpPollMask == 0. The search's own per-node poll
// cannot interrupt a single long LP, and on hard prequadratic
// encodings one LP can outlast a deadline by seconds.
const lpPollMask = 0xf

// lpCanceled reports whether done has fired, polling it only on every
// lpPollMask+1'th pivot (and never when done is nil).
func lpCanceled(done <-chan struct{}, pivots int) bool {
	if done == nil || pivots&lpPollMask != 0 {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

func ratInt(v int64) *big.Rat { return new(big.Rat).SetInt64(v) }

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

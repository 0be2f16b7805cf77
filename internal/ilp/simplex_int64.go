package ilp

import (
	"math"
	"math/big"
	"math/bits"
)

// The int64 fast path runs the exact same phase-1 primal simplex as
// lpFeasible — same standard form, same Bland's rule, same ratio-test
// tie-break — but on machine integers: each tableau row is a vector of
// int64 numerators over one positive int64 denominator, reduced by
// their gcd after every pivot. Because the represented rationals are
// exactly those the big.Rat tableau holds, the pivot sequence, the
// feasibility verdict, and the returned point are bit-identical to the
// exact path by construction. Every multiplication is overflow-checked
// (bits.Mul64 on magnitudes); the moment any product would leave the
// int64 range the attempt is abandoned and the caller falls back to
// the big.Rat simplex, so the fast path can never be wrong, only
// unavailable.

// fastTableau is the pooled scratch for one fast-path attempt. The
// solver keeps one instance and reuses its backing arrays across the
// sibling branch-and-bound nodes of a solve, which is where the
// allocation savings over the map-of-big.Rat tableau come from.
type fastTableau struct {
	// nums is the m×(cols+1) numerator matrix, flat, row-major; the
	// last column of each row is the right-hand side b.
	nums []int64
	// dens[i] > 0 is row i's shared denominator.
	dens  []int64
	basis []int
	art   []bool
	// z is the phase-1 reduced-cost row (cols+1 wide, last = objective)
	// over denominator zden.
	z    []int64
	zden int64
	// slackSign and rhs stage the standard-form assembly.
	slackSign []int8
	rhs       []int64
}

// grow returns a zeroed int64 slice of length n backed by buf.
func grow(buf []int64, n int) []int64 {
	if cap(buf) < n {
		buf = make([]int64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// mulChk multiplies with overflow detection.
func mulChk(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	neg := (a < 0) != (b < 0)
	ua, ub := absU64(a), absU64(b)
	hi, lo := bits.Mul64(ua, ub)
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	if neg {
		return -int64(lo), true
	}
	return int64(lo), true
}

// subChk subtracts with overflow detection.
func subChk(a, b int64) (int64, bool) {
	c := a - b
	if (b > 0 && c > a) || (b < 0 && c < a) {
		return 0, false
	}
	return c, true
}

func absU64(v int64) uint64 {
	if v < 0 {
		return uint64(-v)
	}
	return uint64(v)
}

func gcd64(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// reduceRow divides a numerator row and its denominator by their gcd,
// keeping magnitudes small across pivots (the fraction-free analogue
// of big.Rat's automatic normalization).
func reduceRow(nums []int64, den int64) int64 {
	g := absU64(den)
	for _, v := range nums {
		if v != 0 {
			g = gcd64(g, absU64(v))
			if g == 1 {
				return den
			}
		}
	}
	if g <= 1 {
		return den
	}
	d := int64(g)
	for j, v := range nums {
		if v != 0 {
			nums[j] = v / d
		}
	}
	return den / d
}

// ratioLess compares the nonnegative ratios bi/ai < bl/al by 128-bit
// cross-multiplication, so the ratio test itself can never overflow.
func ratioLess(bi, ai, bl, al int64) bool {
	h1, l1 := bits.Mul64(uint64(bi), uint64(al))
	h2, l2 := bits.Mul64(uint64(bl), uint64(ai))
	if h1 != h2 {
		return h1 < h2
	}
	return l1 < l2
}

func ratioEqual(bi, ai, bl, al int64) bool {
	h1, l1 := bits.Mul64(uint64(bi), uint64(al))
	h2, l2 := bits.Mul64(uint64(bl), uint64(ai))
	return h1 == h2 && l1 == l2
}

// lpFeasibleFast is the int64 mirror of lpFeasible. The third result
// reports whether the attempt completed: false means a potential
// overflow was detected and the caller must rerun on big.Rat (pivots
// counted so far are discarded so the fallback's stats match a pure
// exact run). Like lpFeasible it polls done and, once it fires,
// returns a completed infeasible result.
func (ft *fastTableau) lpFeasibleFast(n int, rows []lpRow, lo, hi []int64, stats *Stats, done <-chan struct{}) (feasible bool, pt []*big.Rat, completed bool) {
	// Count the standard-form rows first so the flat tableau can be
	// laid out in one pass: constraint rows plus one row per active
	// bound.
	m := len(rows)
	for i := 0; i < n; i++ {
		if lo[i] > 0 {
			m++
		}
		if hi[i] != noBound {
			m++
		}
	}
	if m == 0 {
		pt := make([]*big.Rat, n)
		for i := range pt {
			pt[i] = ratInt(max64(0, lo[i]))
		}
		return true, pt, true
	}
	cols := n + 2*m
	w := cols + 1 // row width including the rhs column
	ft.nums = grow(ft.nums, m*w)
	ft.dens = grow(ft.dens, m)
	if cap(ft.basis) < m {
		ft.basis = make([]int, m)
		ft.slackSign = make([]int8, m)
	}
	ft.basis = ft.basis[:m]
	ft.slackSign = ft.slackSign[:m]
	if cap(ft.art) < cols {
		ft.art = make([]bool, cols)
	}
	ft.art = ft.art[:cols]
	for i := range ft.art {
		ft.art[i] = false
	}
	ft.z = grow(ft.z, w)

	// Assemble: same rows in the same order as lpFeasible's addRow
	// calls — constraint rows, then per-variable lo/hi bound rows.
	i := 0
	for _, r := range rows {
		row := ft.nums[i*w : (i+1)*w]
		for _, t := range r.terms {
			c, ok := addChkI(row[int(t.Var)], t.Coef)
			if !ok {
				return false, nil, false
			}
			row[int(t.Var)] = c
		}
		row[cols] = r.k
		switch r.rel {
		case LE:
			ft.slackSign[i] = 1
		case GE:
			ft.slackSign[i] = -1
		case EQ:
			ft.slackSign[i] = 0
		}
		ft.dens[i] = 1
		i++
	}
	for v := 0; v < n; v++ {
		if lo[v] > 0 {
			row := ft.nums[i*w : (i+1)*w]
			row[v] = 1
			row[cols] = lo[v]
			ft.slackSign[i] = -1
			ft.dens[i] = 1
			i++
		}
		if hi[v] != noBound {
			row := ft.nums[i*w : (i+1)*w]
			row[v] = 1
			row[cols] = hi[v]
			ft.slackSign[i] = 1
			ft.dens[i] = 1
			i++
		}
	}

	// Normalize to b ≥ 0 and install slack/artificial columns, exactly
	// as the exact path does.
	for i := 0; i < m; i++ {
		row := ft.nums[i*w : (i+1)*w]
		if row[cols] < 0 {
			if row[cols] == math.MinInt64 {
				return false, nil, false
			}
			row[cols] = -row[cols]
			for j := 0; j < n; j++ {
				if row[j] == math.MinInt64 {
					return false, nil, false
				}
				row[j] = -row[j]
			}
			ft.slackSign[i] = -ft.slackSign[i]
		}
		slackCol := n + i
		artCol := n + m + i
		switch ft.slackSign[i] {
		case 1:
			row[slackCol] = 1
			ft.basis[i] = slackCol
		case -1:
			row[slackCol] = -1
			row[artCol] = 1
			ft.art[artCol] = true
			ft.basis[i] = artCol
		default:
			row[artCol] = 1
			ft.art[artCol] = true
			ft.basis[i] = artCol
		}
	}

	// Phase-1 objective row (integer: all dens are 1 at setup).
	ft.zden = 1
	for i := 0; i < m; i++ {
		if !ft.art[ft.basis[i]] {
			continue
		}
		row := ft.nums[i*w : (i+1)*w]
		for j := 0; j <= cols; j++ {
			c, ok := addChkI(ft.z[j], row[j])
			if !ok {
				return false, nil, false
			}
			ft.z[j] = c
		}
	}
	for i := range ft.basis {
		ft.z[ft.basis[i]] = 0
	}

	pivots := 0
	for {
		if ft.z[cols] == 0 {
			break
		}
		if lpCanceled(done, pivots) {
			if stats != nil {
				stats.Pivots += pivots
			}
			return false, nil, true
		}
		enter := -1
		for j := 0; j < n+m; j++ {
			if ft.z[j] > 0 {
				enter = j
				break
			}
		}
		if enter < 0 {
			// Optimal with positive objective: infeasible.
			if stats != nil {
				stats.Pivots += pivots
			}
			return false, nil, true
		}
		leave := -1
		var lb, la int64 // ratio numerator/denominator of the incumbent
		for i := 0; i < m; i++ {
			a := ft.nums[i*w+enter]
			if a <= 0 {
				continue
			}
			b := ft.nums[i*w+cols]
			if leave < 0 || ratioLess(b, a, lb, la) ||
				(ratioEqual(b, a, lb, la) && ft.basis[i] < ft.basis[leave]) {
				leave = i
				lb, la = b, a
			}
		}
		if leave < 0 {
			// Unbounded improving direction in phase 1 cannot happen
			// (objective is bounded below by 0); defensive stop.
			if stats != nil {
				stats.Pivots += pivots
			}
			return false, nil, true
		}
		pivots++
		if !ft.pivotFast(m, w, cols, leave, enter) {
			return false, nil, false
		}
	}

	if stats != nil {
		stats.Pivots += pivots
	}
	pt = make([]*big.Rat, n)
	for i := range pt {
		pt[i] = new(big.Rat)
	}
	for i, bv := range ft.basis {
		if bv < n {
			pt[bv].SetFrac64(ft.nums[i*w+cols], ft.dens[i])
		}
	}
	return true, pt, true
}

// pivotFast makes column enter basic in row leave. With row i held as
// N_i/D_i, pivoting on p = N_l[e]/D_l gives
//
//	row l:  N_l / N_l[e]                      (numerators unchanged)
//	row i:  (N_i·N_l[e] − N_i[e]·N_l) / (D_i·N_l[e])
//
// followed by a gcd reduction of every touched row. It reports false
// on any potential overflow.
func (ft *fastTableau) pivotFast(m, w, cols, leave, enter int) bool {
	lrow := ft.nums[leave*w : (leave+1)*w]
	p := lrow[enter] // > 0 by the ratio test
	update := func(row []int64, den int64) (int64, bool) {
		f := row[enter]
		if f == 0 {
			return den, true
		}
		for j := 0; j <= cols; j++ {
			lv := lrow[j]
			a, ok := mulChk(row[j], p)
			if !ok {
				return 0, false
			}
			if lv != 0 {
				b, ok2 := mulChk(f, lv)
				if !ok2 {
					return 0, false
				}
				a, ok2 = subChk(a, b)
				if !ok2 {
					return 0, false
				}
			}
			row[j] = a
		}
		nd, ok := mulChk(den, p)
		if !ok {
			return 0, false
		}
		return reduceRow(row, nd), true
	}
	for i := 0; i < m; i++ {
		if i == leave {
			continue
		}
		row := ft.nums[i*w : (i+1)*w]
		nd, ok := update(row, ft.dens[i])
		if !ok {
			return false
		}
		ft.dens[i] = nd
	}
	nd, ok := update(ft.z, ft.zden)
	if !ok {
		return false
	}
	ft.zden = nd
	// The leave row last: the formulas above read its old numerators.
	ft.dens[leave] = reduceRow(lrow, p)
	ft.basis[leave] = enter
	return true
}

// addChkI adds with overflow detection.
func addChkI(a, b int64) (int64, bool) {
	c := a + b
	if (b > 0 && c < a) || (b < 0 && c > a) {
		return 0, false
	}
	return c, true
}

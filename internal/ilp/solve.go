package ilp

import (
	"context"
	"math"
	"math/big"

	"repro/internal/introspect"
	"repro/internal/obs"
)

// noBound is the sentinel for "no finite upper bound yet".
const noBound = math.MaxInt64

// Verdict is a three-valued solver outcome.
type Verdict int

// The solver verdicts.
const (
	// Unknown means the search exhausted its value cap or node budget
	// before reaching a definitive answer.
	Unknown Verdict = iota
	// Sat means a satisfying nonnegative integer assignment was found.
	Sat
	// Unsat means no assignment exists (unconditionally).
	Unsat
)

func (v Verdict) String() string {
	switch v {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// LPMode selects when the exact-simplex relaxation runs.
type LPMode int

// The relaxation modes.
const (
	// LPAuto (the default) engages the simplex only after the search
	// has explored lpActivationNodes nodes without finishing —
	// propagation and structured branching decide easy systems far
	// more cheaply, while hard systems still get relaxation pruning.
	LPAuto LPMode = iota
	// LPAlways runs the simplex at every lpStride-th level from the
	// start.
	LPAlways
	// LPNever disables the simplex entirely.
	LPNever
)

// Options configures the solver.
type Options struct {
	// MaxValue caps every variable during branching. Branches that
	// would exceed it are pruned and taint an Unsat verdict into
	// Unknown. Zero means 1<<20.
	MaxValue int64
	// MaxNodes caps the number of search nodes. Zero means 1<<18.
	MaxNodes int
	// LP selects the relaxation mode (default LPAuto).
	LP LPMode
	// DisableLP is shorthand for LP = LPNever (kept for the ablation
	// benchmarks and simple call sites).
	DisableLP bool
	// ForceRatLP disables the int64 fast-path simplex so every
	// relaxation runs on the exact big.Rat tableau. The fast path
	// produces bit-identical verdicts and points by construction, so
	// this knob exists for the differential harness and for ablation
	// benchmarks, not for correctness.
	ForceRatLP bool
	// Obs receives solver spans and counters; nil disables
	// observability (the hot path then pays one nil check).
	Obs *obs.Recorder
	// Ctx, when non-nil, makes the search cancellable: the solver
	// polls Ctx.Done() every ctxPollMask+1 nodes and unwinds with
	// Canceled set and an Unknown verdict when it fires. A nil Ctx
	// costs nothing on the hot path.
	Ctx context.Context
	// Progress, when non-nil, receives sampled live snapshots of the
	// search (on entering the root node, every progressMask+1 nodes,
	// after each simplex call, and once at the end of every solve)
	// through the publisher's atomic
	// pointer. The search-shaped fields describe the current solve;
	// Progress.Restarts counts how many solves this publisher has
	// seen. A nil Progress costs one pointer check per node.
	Progress *introspect.Publisher
}

// ctxPollMask spaces the cancellation polls: the search checks
// Ctx.Done() whenever Nodes&ctxPollMask == 0, i.e. every 256 nodes —
// frequent enough that a 1ms deadline aborts promptly, rare enough
// that the non-blocking select never shows up in profiles.
const ctxPollMask = 0xff

// lpActivationNodes is the LPAuto threshold: below it the search runs
// on propagation alone.
const lpActivationNodes = 2000

// progressMask spaces the live-progress samples the same way
// ctxPollMask spaces cancellation polls: a snapshot publishes whenever
// Nodes&progressMask == 0, i.e. every 512 nodes — frequent enough
// that an in-flight view refreshes many times per second on hard
// instances, rare enough that the atomic store never shows up in
// profiles.
const progressMask = 0x1ff

func (o Options) withDefaults() Options {
	if o.MaxValue == 0 {
		o.MaxValue = 1 << 20
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 1 << 18
	}
	if o.DisableLP {
		o.LP = LPNever
	}
	return o
}

// Stats reports search effort.
type Stats struct {
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// LPCalls is the number of simplex relaxations solved.
	LPCalls int
	// PropPasses counts interval-propagation fixpoint rounds.
	PropPasses int
	// Branches counts branching decisions: domain splits plus
	// conditional case splits. Zero means propagation alone (with at
	// most the root evaluation) decided the system.
	Branches int
	// MaxDepth is the deepest search-tree level reached.
	MaxDepth int
	// Pivots counts simplex tableau pivots across all LP calls.
	Pivots int
	// Saturations counts interval-arithmetic bound computations that
	// hit the saturation cap (a sign the instance strains the 2^56
	// arithmetic window). Propagation revisits only the rows touched
	// since their last visit (after the root's first two rounds, which
	// visit every row), so it counts saturated bounds on the rows it
	// visited; a row left alone is not counted again.
	Saturations int
	// FastPathLPs counts relaxations the int64 fast-path simplex
	// completed; RatFallbacks counts the ones it abandoned to the
	// exact big.Rat tableau on a potential overflow. FastPathLPs +
	// RatFallbacks = LPCalls unless ForceRatLP disabled the fast path.
	FastPathLPs  int
	RatFallbacks int
}

// Merge accumulates other into s (MaxDepth by maximum, the rest by
// sum) — the aggregation the multi-solve deciders need.
func (s *Stats) Merge(other Stats) {
	s.Nodes += other.Nodes
	s.LPCalls += other.LPCalls
	s.PropPasses += other.PropPasses
	s.Branches += other.Branches
	if other.MaxDepth > s.MaxDepth {
		s.MaxDepth = other.MaxDepth
	}
	s.Pivots += other.Pivots
	s.Saturations += other.Saturations
	s.FastPathLPs += other.FastPathLPs
	s.RatFallbacks += other.RatFallbacks
}

// record publishes the stats as obs counters under the ilp.* namespace.
func (s Stats) record(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	rec.Add("ilp.nodes", int64(s.Nodes))
	rec.Add("ilp.lp_calls", int64(s.LPCalls))
	rec.Add("ilp.propagation_passes", int64(s.PropPasses))
	rec.Add("ilp.branches", int64(s.Branches))
	rec.Set("ilp.max_depth", int64(s.MaxDepth))
	rec.Add("ilp.pivots", int64(s.Pivots))
	rec.Add("ilp.saturations", int64(s.Saturations))
	rec.Add("ilp.fastpath_lps", int64(s.FastPathLPs))
	rec.Add("ilp.rat_fallbacks", int64(s.RatFallbacks))
}

// Result is the solver output.
type Result struct {
	Verdict Verdict
	// Values is a satisfying assignment (indexed by Var) when Sat.
	Values []int64
	// Canceled reports that Options.Ctx fired mid-search; the verdict
	// is then Unknown and the caller should surface the context's
	// error rather than interpret the verdict.
	Canceled bool
	Stats    Stats
}

// Solve decides the system. The verdict is exact whenever it is Sat or
// Unsat; Unknown arises only when the value cap or node budget was
// actually hit on some path that could have mattered.
func Solve(s *System, opts Options) Result {
	res, _ := solve(s, opts)
	return res
}

// solve is Solve, also returning the solver it ran.
func solve(s *System, opts Options) (Result, *solver) {
	opts = opts.withDefaults()
	n := s.NumVars()
	sv := &solver{sys: s, opts: opts, halves: splitHalves(s.Lins)}
	if opts.Ctx != nil {
		sv.done = opts.Ctx.Done()
	}
	opts.Progress.Restart()
	sp := opts.Obs.Start("ilp.solve")
	if sp != nil {
		sp.SetInt("vars", int64(n))
		sp.SetInt("linear", int64(len(s.Lins)))
		sp.SetInt("conditional", int64(len(s.Conds)))
		sp.SetInt("prequadratic", int64(len(s.Quads)))
	}
	// When the theoretical solution-size bound (Papadimitriou) fits
	// under the configured cap, searching up to the cap is complete
	// and Unsat verdicts need no taint.
	if b := papadimitriouBound(s); b <= opts.MaxValue {
		sv.capComplete = true
	}
	lo := make([]int64, n)
	hi := make([]int64, n)
	for i := range hi {
		hi[i] = noBound
	}
	verdict, vals := sv.search(lo, hi, 0)
	if verdict == Unsat && sv.tainted {
		verdict = Unknown
	}
	if sv.canceled {
		verdict = Unknown
		vals = nil
	}
	res := Result{Verdict: verdict, Canceled: sv.canceled, Stats: sv.stats}
	if verdict == Sat {
		res.Values = vals
	}
	if sp != nil {
		sp.SetString("verdict", verdict.String())
		sv.stats.record(opts.Obs)
		opts.Obs.Observe("ilp.nodes_per_solve", int64(sv.stats.Nodes))
		opts.Obs.Observe("ilp.depth_per_solve", int64(sv.stats.MaxDepth))
	}
	if opts.Progress != nil {
		// Final snapshot: the solve's ending tallies, with the root
		// bounds the search started from.
		sv.publishProgress(lo, hi, 0)
	}
	sp.End()
	return res, sv
}

// publishProgress stores a live snapshot through the attached
// publisher and, when the recorder has an event ring, appends counter
// samples so trace exports grow nodes/pivots tracks over time. Only
// called with a non-nil Options.Progress.
func (sv *solver) publishProgress(lo, hi []int64, depth int) {
	var boundLo, boundHi int64
	unbounded := false
	for i := range lo {
		boundLo += lo[i]
		if hi[i] == noBound {
			unbounded = true
		} else if !unbounded {
			boundHi += hi[i]
		}
	}
	if unbounded {
		boundHi = -1
	}
	sv.opts.Progress.Publish(introspect.Progress{
		Nodes:    sv.stats.Nodes,
		Depth:    depth,
		MaxDepth: sv.stats.MaxDepth,
		Branches: sv.stats.Branches,
		LPCalls:  sv.stats.LPCalls,
		Pivots:   sv.stats.Pivots,
		BoundLo:  boundLo,
		BoundHi:  boundHi,
	})
	sv.opts.Obs.Sample("ilp.nodes", int64(sv.stats.Nodes))
	sv.opts.Obs.Sample("ilp.pivots", int64(sv.stats.Pivots))
}

type solver struct {
	sys         *System
	opts        Options
	stats       Stats
	done        <-chan struct{} // Options.Ctx.Done(), nil when uncancellable
	canceled    bool            // the context fired mid-search
	tainted     bool            // a cap/budget prune happened somewhere
	capComplete bool            // the cap provably covers all solutions
	// fastTab and rowBuf are scratch reused across the sibling
	// branch-and-bound nodes of this solve: the int64 tableau backing
	// arrays and the lpRow staging slice survive from one lpCheck to
	// the next instead of being reallocated per relaxation.
	fastTab fastTableau
	rowBuf  []lpRow
	// halves are the linear rows split into ≤ halves once per solve.
	// halfOff/halfIdx index them by variable (CSR), built on the first
	// tightening of the root's second round or else at the first child
	// node, and dirty flags the halves whose variables changed since
	// their last visit.
	halves           []half
	halfOff, halfIdx []int32
	dirty            []uint64
	// lo and hi are the bounds the running propagation tightens;
	// changed records a tightening in the current round, and fixpoint
	// whether the last propagation ended at a fixpoint.
	lo, hi            []int64
	changed, fixpoint bool
	// indexOnMark is set during the root's second round, whose first
	// tightening builds the index.
	indexOnMark bool
	// visits counts half visits over the solve.
	visits int
}

// search explores the subproblem with the given bounds. It returns Sat
// with values, Unsat, or Unknown (budget exhausted on this path).
func (sv *solver) search(lo, hi []int64, depth int) (Verdict, []int64) {
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
	switch sv.propagate(lo, hi) {
	case propConflict:
		return Unsat, nil
	case propTainted:
		return Unsat, nil // taint already recorded
	}
	fix := sv.fixpoint

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
			sv.enterChild(fix)
			for _, t := range c.If {
				sv.mark(t.Var)
			}
			if v, vals := sv.search(aLo, aHi, depth+1); v == Sat {
				return Sat, vals
			}
		}
		// Branch B: conclusion ≥ 1. With positive unit-ish
		// coefficients it is enough to try raising each Then variable
		// to ≥ 1 — but to stay exact for general positive
		// coefficients we instead force "some Then variable ≥ 1" by
		// trying each in turn.
		for _, t := range c.Then {
			bLo, bHi := cloneBounds(lo, hi)
			if bLo[t.Var] < 1 {
				bLo[t.Var] = 1
			}
			if bLo[t.Var] > bHi[t.Var] {
				continue
			}
			// Also remember the premise is positive on this branch?
			// Not needed: the conclusion holding satisfies the
			// conditional regardless of the premise.
			sv.enterChild(fix)
			sv.mark(t.Var)
			if v, vals := sv.search(bLo, bHi, depth+1); v == Sat {
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
			return sv.branchValue(lo, hi, v, point, depth, fix)
		}
	}

	// 3. Branch on an unfixed variable (LP-fractional first).
	v := sv.pickVar(lo, hi, point)
	return sv.branchValue(lo, hi, v, point, depth, fix)
}

// branchValue splits the domain of v. With an LP point, split around
// its value; otherwise enumerate from below (lo vs ≥ lo+1), which
// biases toward the small solutions the encodings have. fix reports
// whether the node's propagation ended at a fixpoint.
func (sv *solver) branchValue(lo, hi []int64, v Var, point []*big.Rat, depth int, fix bool) (Verdict, []int64) {
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
		sv.enterChild(fix)
		sv.mark(v)
		if verd, vals := sv.search(aLo, aHi, depth+1); verd == Sat {
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
	sv.enterChild(fix)
	sv.mark(v)
	verd, vals := sv.search(bLo, bHi, depth+1)
	return verd, vals
}

// lpWanted reports whether this node should pay for a simplex call.
func (sv *solver) lpWanted(depth int) bool {
	if depth%lpStride != 0 {
		return false
	}
	switch sv.opts.LP {
	case LPAlways:
		return true
	case LPNever:
		return false
	default:
		return sv.stats.Nodes > lpActivationNodes
	}
}

// pickVar chooses the branching variable: an LP-fractional variable if
// available, otherwise the unfixed variable with the smallest domain.
func (sv *solver) pickVar(lo, hi []int64, point []*big.Rat) Var {
	if point != nil {
		for i := range point {
			if lo[i] != hi[i] && point[i] != nil && !point[i].IsInt() {
				return Var(i)
			}
		}
	}
	best := -1
	var bestDom int64 = math.MaxInt64
	for i := range lo {
		if lo[i] == hi[i] {
			continue
		}
		// Unbounded variables have domain MaxInt64 and must still be
		// eligible (any unfixed variable is a valid choice).
		if d := domain(lo, hi, Var(i)); best < 0 || d < bestDom {
			bestDom = d
			best = i
		}
	}
	return Var(best)
}

// undecidedCond returns the index of a conditional whose truth is not
// yet forced by the bounds, or -1.
func (sv *solver) undecidedCond(lo, hi []int64) int {
	for i, c := range sv.sys.Conds {
		ifMax := sumUpper(c.If, hi)
		if ifMax == 0 {
			continue // premise identically false
		}
		thenMin := sumLower(c.Then, lo)
		if thenMin > 0 {
			continue // conclusion already true
		}
		ifMin := sumLower(c.If, lo)
		thenMax := sumUpper(c.Then, hi)
		if ifMin > 0 && thenMax == 0 {
			continue // definite conflict; propagation will catch it
		}
		return i
	}
	return -1
}

// unresolvedQuad returns the index of a prequadratic constraint that is
// not yet implied by the bounds and has an unfixed participant, or -1.
func (sv *solver) unresolvedQuad(lo, hi []int64) int {
	for i, q := range sv.sys.Quads {
		if hi[q.X] != noBound && hi[q.X] <= mulSat(lo[q.Y], lo[q.Z]) {
			continue // always satisfied
		}
		if lo[q.Y] == hi[q.Y] && lo[q.Z] == hi[q.Z] {
			continue // fully linear now; propagation enforces it
		}
		return i
	}
	return -1
}

// roundedCandidate tries the LP point rounded down (and clamped to the
// bounds) as an integer assignment.
func (sv *solver) roundedCandidate(point []*big.Rat, lo, hi []int64) ([]int64, bool) {
	vals := make([]int64, len(lo))
	for i := range vals {
		v := ratFloor(point[i])
		vals[i] = clamp(v, lo[i], hiOr(hi[i], v))
	}
	if sv.sys.Eval(vals) == nil {
		return vals, true
	}
	return nil, false
}

func (sv *solver) lpCheck(lo, hi []int64) (bool, []*big.Rat) {
	sv.stats.LPCalls++
	rows := sv.rowBuf[:0]
	for _, l := range sv.sys.Lins {
		rows = append(rows, lpRow{terms: l.Terms, rel: l.Rel, k: l.K})
	}
	// Conditionals whose premise is forced positive contribute their
	// conclusion; quads with both factors fixed contribute linearly.
	for _, c := range sv.sys.Conds {
		if sumLower(c.If, lo) > 0 {
			rows = append(rows, lpRow{terms: c.Then, rel: GE, k: 1})
		}
	}
	for _, q := range sv.sys.Quads {
		if lo[q.Y] == hi[q.Y] && lo[q.Z] == hi[q.Z] {
			rows = append(rows, lpRow{terms: []Term{T(1, q.X)}, rel: LE, k: lo[q.Y] * lo[q.Z]})
		}
	}
	sv.rowBuf = rows
	var feasible, completed bool
	var pt []*big.Rat
	if !sv.opts.ForceRatLP {
		feasible, pt, completed = sv.fastTab.lpFeasibleFast(len(lo), rows, lo, hi, &sv.stats, sv.done)
		if completed {
			sv.stats.FastPathLPs++
		} else {
			// Potential int64 overflow: rerun on the exact tableau. The
			// abandoned attempt committed no pivots, so the stats match
			// a pure big.Rat run.
			sv.stats.RatFallbacks++
		}
	}
	if !completed {
		feasible, pt = lpFeasible(len(lo), rows, lo, hi, &sv.stats, sv.done)
	}
	if !feasible && sv.done != nil {
		// Both simplex loops give up as infeasible when the context
		// fires mid-LP; unwind the whole search as canceled.
		select {
		case <-sv.done:
			sv.canceled = true
			sv.tainted = true
		default:
		}
	}
	return feasible, pt
}

func allFixed(lo, hi []int64) bool {
	for i := range lo {
		if lo[i] != hi[i] {
			return false
		}
	}
	return true
}

func cloneBounds(lo, hi []int64) ([]int64, []int64) {
	return append([]int64(nil), lo...), append([]int64(nil), hi...)
}

func domain(lo, hi []int64, v Var) int64 {
	if hi[v] == noBound {
		return math.MaxInt64
	}
	return hi[v] - lo[v]
}

func hiOr(h, def int64) int64 {
	if h == noBound {
		return def
	}
	return h
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func ratFloor(r *big.Rat) int64 {
	q := new(big.Int).Quo(r.Num(), r.Denom())
	// big.Int Quo truncates toward zero; our values are nonnegative.
	return q.Int64()
}

// lpStride is how many branching levels pass between exact-simplex
// relaxation checks; propagation alone guards the levels in between.
const lpStride = 4

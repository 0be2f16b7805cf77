package prover

import (
	"math"

	"repro/internal/cardinality"
	"repro/internal/constraint"
	"repro/internal/contentmodel"
	"repro/internal/dtd"
	"repro/internal/pathre"
)

// Analysis holds the DTD-only folds the saturation engine consults —
// count bounds, the occurrence and parent tables, the pairwise
// difference folds, reachability, and region automata — computed on
// first use and shared by every saturation run over the same DTD. A
// caller saturating many constraint sets over one DTD (the unsat-core
// minimizer re-saturates a subset per candidate) builds one Analysis
// and pays for each fold once.
//
// An Analysis is not safe for concurrent use: its memos fill in as
// runs consult them.
type Analysis struct {
	d         *dtd.DTD
	recursive bool

	counter   *cardinality.Counter
	occ       map[[2]string]occRange
	parentsOf map[string][]string
	diff      map[[2]string]map[string]int
	reach     map[string]map[string]bool
	// dfas and forced are keyed by a region's node language: its
	// rendered path and its type.
	dfas     map[[2]string]*pathre.DFA
	forced   map[[2]string]bool
	fragment int8 // 0 unknown, 1 the DTD is in the fragment, -1 not
}

// Analyze prepares the DTD-only analysis of d. It computes nothing up
// front; each fold is built when a saturation first needs it.
func Analyze(d *dtd.DTD) *Analysis {
	return &Analysis{
		d:         d,
		recursive: d.IsRecursive(),
		diff:      map[[2]string]map[string]int{},
		reach:     map[string]map[string]bool{},
		dfas:      map[[2]string]*pathre.DFA{},
		forced:    map[[2]string]bool{},
	}
}

// countBounds returns the memoizing count-bounds folder.
func (a *Analysis) countBounds() *cardinality.Counter {
	if a.counter == nil {
		a.counter = cardinality.NewCounter(a.d)
	}
	return a.counter
}

// occTables returns the occurrence structure of the occ-div/occ-sum
// rules: the occurrence interval of every (parent, child) pair, and
// each type's referencing parents in d.Names order.
func (a *Analysis) occTables() (map[[2]string]occRange, map[string][]string) {
	if a.occ == nil {
		a.occ = map[[2]string]occRange{}
		a.parentsOf = map[string][]string{}
		for _, sigma := range a.d.Names {
			for tau, o := range occRanges(a.d.Element(sigma).Content) {
				a.occ[[2]string{sigma, tau}] = o
			}
		}
		for _, tau := range a.d.Names {
			for _, sigma := range a.d.Names {
				if a.occ[[2]string{sigma, tau}].Hi > 0 {
					a.parentsOf[tau] = append(a.parentsOf[tau], sigma)
				}
			}
		}
	}
	return a.occ, a.parentsOf
}

// minDiff returns the memoized difference fold of (σ, τ).
func (a *Analysis) minDiff(sigma, tau string) map[string]int {
	key := [2]string{sigma, tau}
	md, ok := a.diff[key]
	if !ok {
		md = minDiff(a.d, sigma, tau)
		a.diff[key] = md
	}
	return md
}

// reachableAvoiding returns the memoized reachableAvoiding(d, p).
func (a *Analysis) reachableAvoiding(p string) map[string]bool {
	reach, ok := a.reach[p]
	if !ok {
		reach = reachableAvoiding(a.d, p)
		a.reach[p] = reach
	}
	return reach
}

// nodeDFA returns the DFA of the unary target t's node language over
// the DTD's element types; r is t's region.
func (a *Analysis) nodeDFA(t constraint.Target, r Region) *pathre.DFA {
	key := [2]string{r.Path, r.Type}
	dfa, ok := a.dfas[key]
	if !ok {
		dfa = pathre.CompileDFA(nodeExprOf(t), a.d.Names)
		a.dfas[key] = dfa
	}
	return dfa
}

// forcedNonEmpty returns the memoized forcedNonEmpty(d, dfa) of region
// r, whose node-language DFA is dfa.
func (a *Analysis) forcedNonEmpty(r Region, dfa *pathre.DFA) bool {
	key := [2]string{r.Path, r.Type}
	v, ok := a.forced[key]
	if !ok {
		v = forcedNonEmpty(a.d, dfa)
		a.forced[key] = v
	}
	return v
}

// inFragment reports the DTD half of InFragment.
func (a *Analysis) inFragment() bool {
	if a.fragment == 0 {
		a.fragment = -1
		if dtdInFragment(a.d) {
			a.fragment = 1
		}
	}
	return a.fragment > 0
}

// negInf is the -∞ sentinel of the difference analysis: "the difference
// can be made arbitrarily negative". Small enough that saturated
// additions cannot overflow. (Mirrors the speclint prepass analysis,
// which is unexported there by design — the prepass and the prover keep
// independent rule sets.)
const negInf = math.MinInt / 4

// satAdd adds with saturation: negInf absorbs, and finite sums are
// clamped to [negInf, math.MaxInt/4].
func satAdd(a, b int) int {
	if a == negInf || b == negInf {
		return negInf
	}
	s := a + b
	if s > math.MaxInt/4 {
		return math.MaxInt / 4
	}
	if s < negInf {
		return negInf
	}
	return s
}

// minDiff returns, for every type x, the minimum of
// count(σ) − count(τ) over all conforming trees rooted at an x node
// (x included); negInf means unbounded below. Only meaningful on
// non-recursive DTDs — callers must check d.IsRecursive first.
func minDiff(d *dtd.DTD, sigma, tau string) map[string]int {
	memo := map[string]int{}
	var nodeDiff func(x string) int
	nodeDiff = func(x string) int {
		if v, done := memo[x]; done {
			return v
		}
		v := wordDiff(d.Element(x).Content, nodeDiff)
		if x == sigma {
			v = satAdd(v, 1)
		}
		if x == tau {
			v = satAdd(v, -1)
		}
		memo[x] = v
		return v
	}
	for _, name := range d.Names {
		nodeDiff(name)
	}
	return memo
}

// wordDiff folds per-symbol minimum differences over a content model:
// sequences add, choices take the minimum, a star is 0 repetitions
// unless its body can go negative (then the minimum is unbounded).
func wordDiff(e *contentmodel.Expr, diff func(string) int) int {
	switch e.Kind {
	case contentmodel.Empty, contentmodel.Text:
		return 0
	case contentmodel.Name:
		return diff(e.Ref)
	case contentmodel.Seq:
		sum := 0
		for _, k := range e.Kids {
			sum = satAdd(sum, wordDiff(k, diff))
			if sum == negInf {
				return negInf
			}
		}
		return sum
	case contentmodel.Choice:
		best := math.MaxInt
		for _, k := range e.Kids {
			if v := wordDiff(k, diff); v < best {
				best = v
			}
		}
		if best == math.MaxInt {
			return 0
		}
		return best
	case contentmodel.Star:
		if wordDiff(e.Kids[0], diff) < 0 {
			return negInf
		}
		return 0
	}
	return 0
}

// reachableAvoiding returns the set of types reachable from the root in
// the type-reference graph without passing through p (the root itself
// is included unless it is p). If a type is NOT in this set, every
// occurrence of it in a conforming document sits below a p node — the
// soundness basis of the zero-dom rule.
func reachableAvoiding(d *dtd.DTD, p string) map[string]bool {
	seen := map[string]bool{}
	if d.Root == p {
		return seen
	}
	seen[d.Root] = true
	queue := []string{d.Root}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		el := d.Element(x)
		if el == nil {
			continue
		}
		for _, y := range el.Content.Alphabet() {
			if y == p || seen[y] {
				continue
			}
			seen[y] = true
			queue = append(queue, y)
		}
	}
	return seen
}

// occInf is the +∞ sentinel of the occurrence analysis: "a word of the
// content model may repeat the type arbitrarily often".
const occInf = math.MaxInt / 4

// occRange is the occurrence interval of one type across the words of
// a content model: every word contains at least Lo and at most Hi
// occurrences (Hi == occInf under a star).
type occRange struct {
	Lo, Hi int
}

// occRanges folds a content model into the occurrence interval of
// every type it references, in a single walk: sequences add intervals,
// choices take the union's hull, and a star drops the floor to zero
// and lifts any positive ceiling to occInf.
func occRanges(e *contentmodel.Expr) map[string]occRange {
	switch e.Kind {
	case contentmodel.Name:
		return map[string]occRange{e.Ref: {Lo: 1, Hi: 1}}
	case contentmodel.Seq:
		out := map[string]occRange{}
		for _, k := range e.Kids {
			for t, o := range occRanges(k) {
				cur := out[t]
				hi := cur.Hi + o.Hi
				if hi > occInf {
					hi = occInf
				}
				out[t] = occRange{Lo: cur.Lo + o.Lo, Hi: hi}
			}
		}
		return out
	case contentmodel.Choice:
		kids := make([]map[string]occRange, len(e.Kids))
		union := map[string]bool{}
		for i, k := range e.Kids {
			kids[i] = occRanges(k)
			for t := range kids[i] {
				union[t] = true
			}
		}
		out := map[string]occRange{}
		for t := range union {
			lo, hi := math.MaxInt, 0
			for _, ko := range kids {
				o := ko[t] // absent branch contributes zero occurrences
				if o.Lo < lo {
					lo = o.Lo
				}
				if o.Hi > hi {
					hi = o.Hi
				}
			}
			out[t] = occRange{Lo: lo, Hi: hi}
		}
		return out
	case contentmodel.Star:
		out := occRanges(e.Kids[0])
		for t, o := range out {
			if o.Hi > 0 {
				o.Hi = occInf
			}
			out[t] = occRange{Lo: 0, Hi: o.Hi}
		}
		return out
	}
	return nil // Empty, Text: no type references
}

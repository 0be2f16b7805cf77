package speclint

import (
	"errors"
	"math"

	"repro/internal/constraint"
	"repro/internal/contentmodel"
	"repro/internal/dtd"
)

// negInf is the -∞ sentinel of the cardinality-difference analysis:
// "the difference can be made arbitrarily negative". Small enough that
// saturated additions cannot overflow.
const negInf = math.MinInt / 4

// facts is one lint pass's view of a spec: the DTD-only facts, which
// may be shared with other passes over the same DTD, plus the
// constraint set and its memoized well-formedness violations.
type facts struct {
	*DTDFacts
	set *constraint.Set

	wfDone bool
	wf     []constraint.WFViolation
}

// DTDFacts lazily computes and memoizes the structural analyses of one
// DTD that the rules consult: validity, productivity, occurrability,
// recursion, satisfiability, the σ-avoiding types and the
// cardinality-difference folds. Nothing in it depends on the
// constraint set, so a caller linting many constraint sets over one
// DTD (the unsat-core minimizer decides a subset per candidate) builds
// one DTDFacts and pays for each analysis once.
//
// A DTDFacts is not safe for concurrent use: its memos fill in as
// rules consult them.
type DTDFacts struct {
	d *dtd.DTD

	dtdErrDone bool
	dtdErr     error

	productive map[string]bool
	occurrable map[string]bool

	recursiveDone bool
	recursive     bool

	satisfiableDone bool
	satisfiable     bool

	// avoidMemo[σ] is the set of types that can derive a finite tree
	// containing no σ node (σ itself never qualifies).
	avoidMemo map[string]map[string]bool

	// diffMemo[{σ,τ}][x] is minDiff: the minimum of count(σ)-count(τ)
	// over finite trees rooted at an x node (negInf when unbounded
	// below). Only computed on non-recursive DTDs.
	diffMemo map[[2]string]map[string]int
}

// NewDTDFacts prepares the analyses of d (which may be nil: a nil DTD
// is invalid). It computes nothing up front.
func NewDTDFacts(d *dtd.DTD) *DTDFacts {
	return &DTDFacts{d: d}
}

// DTDErr returns the DTD's own well-formedness error (nil DTDs count as
// invalid), memoized.
func (f *DTDFacts) DTDErr() error {
	if !f.dtdErrDone {
		f.dtdErrDone = true
		if f.d == nil {
			f.dtdErr = errors.New("dtd: no DTD")
		} else {
			f.dtdErr = f.d.Validate()
		}
	}
	return f.dtdErr
}

// WF returns the constraint set's well-formedness violations, memoized.
// It is empty (vacuously clean) when the DTD itself is invalid, since
// the checks presuppose a valid DTD.
func (f *facts) WF() []constraint.WFViolation {
	if !f.wfDone {
		f.wfDone = true
		if f.DTDErr() == nil {
			f.wf = f.set.WFViolations(f.d)
		}
	}
	return f.wf
}

// Clean reports whether the spec passed tier 1: valid DTD, no
// constraint well-formedness violations. Tier-2/3 rules only run on
// clean specs — their analyses assume declared types and paired keys.
func (f *facts) Clean() bool {
	return f.DTDErr() == nil && len(f.WF()) == 0
}

// Productive memoizes dtd.Productive. On a valid non-recursive DTD
// every type is productive (by induction over the topological order,
// as in Satisfiable), so the fixpoint only runs on the others.
func (f *DTDFacts) Productive() map[string]bool {
	if f.productive == nil {
		if f.DTDErr() == nil && !f.Recursive() {
			f.productive = make(map[string]bool, len(f.d.Names))
			for _, name := range f.d.Names {
				f.productive[name] = true
			}
		} else {
			f.productive = f.d.Productive()
		}
	}
	return f.productive
}

// Satisfiable memoizes "some document conforms to the DTD". A valid
// non-recursive DTD is always satisfiable (every type derives its
// minimal word by induction over the topological order), which keeps
// the prepass off the Productive fixpoint on the common case.
func (f *DTDFacts) Satisfiable() bool {
	if !f.satisfiableDone {
		f.satisfiableDone = true
		if f.DTDErr() == nil && !f.Recursive() {
			f.satisfiable = true
		} else {
			f.satisfiable = f.Productive()[f.d.Root]
		}
	}
	return f.satisfiable
}

// Recursive memoizes dtd.IsRecursive.
func (f *DTDFacts) Recursive() bool {
	if !f.recursiveDone {
		f.recursiveDone = true
		f.recursive = f.d.IsRecursive()
	}
	return f.recursive
}

// Occurrable returns the set of element types that occur in at least
// one conforming document. A type occurs iff it is the root of a
// satisfiable DTD, or some occurrable parent's content model can match
// a word that contains it and whose other symbols are all productive.
// Computed as a least fixpoint seeded at the root, in which every
// content model is walked once, when its type first occurs.
func (f *DTDFacts) Occurrable() map[string]bool {
	if f.occurrable != nil {
		return f.occurrable
	}
	occ := map[string]bool{}
	w := occWalker{prod: f.Productive()}
	if w.prod[f.d.Root] {
		occ[f.d.Root] = true
		queue := []string{f.d.Root}
		for len(queue) > 0 {
			p := queue[0]
			queue = queue[1:]
			w.buf = w.buf[:0]
			w.walk(f.d.Element(p).Content)
			for _, y := range w.buf {
				if !occ[y] {
					occ[y] = true
					queue = append(queue, y)
				}
			}
		}
	}
	f.occurrable = occ
	return occ
}

// occWalker collects, in one walk of a content model, every symbol
// that occurs in some word of the model whose element symbols are all
// productive.
type occWalker struct {
	prod map[string]bool
	buf  []string
}

// walk reports whether e matches a word of productive symbols
// (MatchSubset) and appends to buf the symbols that occur in such a
// word. A sequence only matches when every factor does, so a failing
// sequence takes back what its factors appended.
func (w *occWalker) walk(e *contentmodel.Expr) bool {
	switch e.Kind {
	case contentmodel.Empty, contentmodel.Text:
		return true
	case contentmodel.Name:
		if !w.prod[e.Ref] {
			return false
		}
		w.buf = append(w.buf, e.Ref)
		return true
	case contentmodel.Seq:
		mark, all := len(w.buf), true
		for _, k := range e.Kids {
			if !w.walk(k) {
				all = false
			}
		}
		if !all {
			w.buf = w.buf[:mark]
		}
		return all
	case contentmodel.Choice:
		any := false
		for _, k := range e.Kids {
			if w.walk(k) {
				any = true
			}
		}
		return any
	case contentmodel.Star:
		// Zero repetitions always match; one repetition of a matching
		// body contributes its symbols.
		w.walk(e.Kids[0])
		return true
	}
	return false
}

// Avoid returns the set of element types that can derive a finite tree
// containing no σ node anywhere (σ itself excluded by definition).
// Computed as a Productive-style least fixpoint that never admits σ.
func (f *DTDFacts) Avoid(sigma string) map[string]bool {
	if f.avoidMemo == nil {
		f.avoidMemo = map[string]map[string]bool{}
	}
	if a, done := f.avoidMemo[sigma]; done {
		return a
	}
	avoid := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for _, name := range f.d.Names {
			if avoid[name] || name == sigma {
				continue
			}
			e := f.d.Element(name)
			if e.Content.MatchSubset(func(ref string) bool { return avoid[ref] }) {
				avoid[name] = true
				changed = true
			}
		}
	}
	f.avoidMemo[sigma] = avoid
	return avoid
}

// MustOccur reports whether every conforming document contains a σ
// node: the root cannot derive a tree that avoids σ.
func (f *DTDFacts) MustOccur(sigma string) bool {
	return f.d.Root == sigma || !f.Avoid(sigma)[f.d.Root]
}

// MustOccurUnder reports whether every c node's proper descendants
// include a σ node: no word of P(c) consists solely of types that can
// avoid σ.
func (f *DTDFacts) MustOccurUnder(c, sigma string) bool {
	avoid := f.Avoid(sigma)
	return !f.d.Element(c).Content.MatchSubset(func(y string) bool { return avoid[y] })
}

// MinDiff returns, for every type x, the minimum of
// count(σ) − count(τ) over all finite trees rooted at an x node, where
// count(t) is the number of t nodes in the tree (x included). negInf
// means the difference is unbounded below. Only meaningful on
// non-recursive, satisfiable DTDs; callers must check f.Recursive().
func (f *DTDFacts) MinDiff(sigma, tau string) map[string]int {
	key := [2]string{sigma, tau}
	if f.diffMemo == nil {
		f.diffMemo = map[[2]string]map[string]int{}
	}
	if m, done := f.diffMemo[key]; done {
		return m
	}
	memo := map[string]int{}
	var nodeDiff func(x string) int
	nodeDiff = func(x string) int {
		if v, done := memo[x]; done {
			return v
		}
		v := wordDiff(f.d.Element(x).Content, nodeDiff)
		if x == sigma {
			v = satAdd(v, 1)
		}
		if x == tau {
			v = satAdd(v, -1)
		}
		memo[x] = v
		return v
	}
	for _, name := range f.d.Names {
		nodeDiff(name)
	}
	f.diffMemo[key] = memo
	return memo
}

// WordDiff returns the minimum of count(σ) − count(τ) over the forests
// derivable from a word of the content model e (the per-symbol values
// come from MinDiff).
func (f *DTDFacts) WordDiff(e *contentmodel.Expr, sigma, tau string) int {
	diff := f.MinDiff(sigma, tau)
	return wordDiff(e, func(x string) int { return diff[x] })
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
		return best
	case contentmodel.Star:
		if wordDiff(e.Kids[0], diff) < 0 {
			return negInf
		}
		return 0
	}
	return 0
}

// satAdd adds with saturation: negInf absorbs, and finite sums are
// clamped to [negInf, MaxInt/4] so repeated folds cannot overflow.
// Clamping keeps the result a valid lower bound on the true difference.
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

// Package implication implements the implication problem Impl(C) of
// the paper: given a DTD D, a constraint set Σ and a constraint φ,
// decide whether every tree conforming to D and satisfying Σ also
// satisfies φ ((D, Σ) ⊢ φ). The procedure is the classical dual of
// satisfiability: φ is implied iff D ∧ Σ ∧ ¬φ has no model, and ¬φ is
// expressible inside the cell encoding of Theorem 3.4:
//
//   - ¬(key on region i):  values_i ≤ nodes_i − 1 (two members of the
//     region share a value);
//   - ¬(inclusion i ⊆ j):  Σ_{θ(i)=1, θ(j)=0} z_θ ≥ 1 (some value of
//     region i lies outside region j's value set).
//
// "Implied" verdicts are exact. "NotImplied" verdicts come with a
// dynamically verified counterexample document; when a counterexample
// cannot be materialized the result degrades to Unknown, matching the
// paper's coNP/undecidability landscape (Section 3.4, Corollary 4.5).
//
// The package also provides the Proposition 3.6 reduction from SAT(C)
// to the complement of Impl(C) as an executable transform.
package implication

import (
	"fmt"

	"repro/internal/bruteforce"
	"repro/internal/cardinality"
	"repro/internal/constraint"
	"repro/internal/contentmodel"
	"repro/internal/dtd"
	"repro/internal/ilp"
	"repro/internal/xmltree"
)

// Verdict is the three-valued implication outcome.
type Verdict int

// The verdicts.
const (
	// Unknown means the procedure could not decide within its limits.
	Unknown Verdict = iota
	// Implied means every model of (D, Σ) satisfies φ.
	Implied
	// NotImplied means a counterexample exists.
	NotImplied
)

func (v Verdict) String() string {
	switch v {
	case Implied:
		return "implied"
	case NotImplied:
		return "not-implied"
	default:
		return "unknown"
	}
}

// Options configures the checker.
type Options struct {
	ILP ilp.Options
	// WitnessMaxNodes bounds counterexample realization (zero: 2000).
	WitnessMaxNodes int
	// SearchNodes bounds the fallback exhaustive counterexample search
	// (zero: 5).
	SearchNodes int
}

// encodableSubset returns the unary absolute constraints of Σ (the
// fragment the cell encoding handles). Checking implication against a
// subset of Σ keeps "Implied" verdicts sound — removing constraints
// only enlarges the model set — and counterexamples are always
// verified against the full Σ before "NotImplied" is reported.
func encodableSubset(set *constraint.Set) (*constraint.Set, bool) {
	out := &constraint.Set{}
	full := true
	for _, k := range set.Keys {
		if k.Context == "" && k.Target.Unary() {
			out.AddKey(k)
		} else {
			full = false
		}
	}
	for _, c := range set.Incls {
		if c.Context == "" && c.From.Unary() {
			// The paired key is unary absolute too (Validate enforces
			// the pairing), so it is already in the subset;
			// AddForeignKey deduplicates.
			out.AddForeignKey(c)
		} else {
			full = false
		}
	}
	return out, full
}

// Result is the outcome of an implication check.
type Result struct {
	Verdict Verdict
	// Counterexample is a verified tree satisfying Σ but not φ
	// (NotImplied only).
	Counterexample *xmltree.Tree
	// Diagnosis explains Unknown verdicts.
	Diagnosis string
}

// Implies decides (D, Σ) ⊢ φ for a unary absolute constraint φ (key or
// inclusion-as-foreign-key) over a unary absolute (type-based or
// regular) Σ.
func Implies(d *dtd.DTD, set *constraint.Set, phi constraint.Constraint, opts Options) (Result, error) {
	if opts.WitnessMaxNodes == 0 {
		opts.WitnessMaxNodes = 2000
	}
	switch c := phi.(type) {
	case constraint.Key:
		if c.Context != "" || !c.Target.Unary() {
			return Result{}, fmt.Errorf("implication: only unary absolute constraints are supported, got %s", c)
		}
		return refuteKey(d, set, c, opts)
	case constraint.Inclusion:
		if c.Context != "" || !c.From.Unary() {
			return Result{}, fmt.Errorf("implication: only unary absolute constraints are supported, got %s", c)
		}
		return refuteInclusion(d, set, c, opts)
	}
	return Result{}, fmt.Errorf("implication: unsupported constraint %v", phi)
}

// ImpliesForeignKey decides implication of a whole foreign key — the
// inclusion together with the key on its right-hand side (the paper's
// pairing). The foreign key is implied iff both parts are.
func ImpliesForeignKey(d *dtd.DTD, set *constraint.Set, inc constraint.Inclusion, opts Options) (Result, error) {
	if opts.WitnessMaxNodes == 0 {
		opts.WitnessMaxNodes = 2000
	}
	kres, err := refuteKey(d, set, constraint.Key{Target: inc.To}, opts)
	if err != nil {
		return Result{}, err
	}
	if kres.Verdict == NotImplied {
		return kres, nil
	}
	ires, err := refuteInclusion(d, set, inc, opts)
	if err != nil {
		return Result{}, err
	}
	if ires.Verdict == NotImplied {
		return ires, nil
	}
	if kres.Verdict == Implied && ires.Verdict == Implied {
		return Result{Verdict: Implied}, nil
	}
	return Result{Verdict: Unknown, Diagnosis: firstNonEmpty(kres.Diagnosis, ires.Diagnosis)}, nil
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

// refuteKey searches for a model of Σ violating the key.
func refuteKey(d *dtd.DTD, set *constraint.Set, key constraint.Key, opts Options) (Result, error) {
	encSet, full := encodableSubset(set)
	enc, err := cardinality.EncodeRegularWithTargets(d, encSet, []constraint.Target{key.Target})
	if err != nil {
		return Result{}, err
	}
	i := enc.RegionIndex(key.Target)
	if i < 0 {
		return Result{}, fmt.Errorf("implication: target region missing")
	}
	r := enc.Regions[i]
	// ¬key: fewer distinct values than nodes — some two nodes in the
	// region share one.
	enc.Flow.Sys.AddLE([]ilp.Term{ilp.T(1, r.ValuesVar), ilp.T(-1, r.NodesVar)}, -1)
	return finish(enc, d, set, full, negatedKey{region: i, key: key}, opts)
}

// refuteInclusion searches for a model of Σ violating the inclusion.
func refuteInclusion(d *dtd.DTD, set *constraint.Set, inc constraint.Inclusion, opts Options) (Result, error) {
	encSet, full := encodableSubset(set)
	enc, err := cardinality.EncodeRegularWithTargets(d, encSet, []constraint.Target{inc.From, inc.To})
	if err != nil {
		return Result{}, err
	}
	i, j := enc.RegionIndex(inc.From), enc.RegionIndex(inc.To)
	if i < 0 || j < 0 {
		return Result{}, fmt.Errorf("implication: target regions missing")
	}
	// ¬inclusion: a value of region i outside region j's value set.
	var terms []ilp.Term
	for m := uint(1); m < uint(len(enc.CellVars)); m++ {
		if m&(1<<uint(i)) != 0 && m&(1<<uint(j)) == 0 {
			terms = append(terms, ilp.T(1, enc.CellVars[m]))
		}
	}
	if len(terms) == 0 {
		// S_i ⊆ S_j structurally: the inclusion is implied outright
		// whenever region j covers everything — conservatively decide
		// by noting no cell can hold a separating value.
		return Result{Verdict: Implied}, nil
	}
	enc.Flow.Sys.AddGE(terms, 1)
	return finish(enc, d, set, full, negatedInclusion{from: i, to: j, inc: inc}, opts)
}

// negation describes how to verify (and, if needed, repair) the
// violation on a constructed tree.
type negation interface {
	violated(t *xmltree.Tree, enc *cardinality.RegularEncoding) bool
	repair(t *xmltree.Tree, enc *cardinality.RegularEncoding, set *constraint.Set) bool
}

type negatedKey struct {
	region int
	key    constraint.Key
}

func (n negatedKey) violated(t *xmltree.Tree, enc *cardinality.RegularEncoding) bool {
	r := enc.Regions[n.region]
	seen := map[string]bool{}
	for _, nd := range t.NodesMatching(r.Expr) {
		v, ok := nd.Attr(r.Attr)
		if !ok {
			continue
		}
		if seen[v] {
			return true
		}
		seen[v] = true
	}
	return false
}

// repair for keys is unnecessary: with values_i < nodes_i every value
// assignment over S_i has a pigeonhole duplicate.
func (n negatedKey) repair(*xmltree.Tree, *cardinality.RegularEncoding, *constraint.Set) bool {
	return false
}

type negatedInclusion struct {
	from, to int
	inc      constraint.Inclusion
}

func (n negatedInclusion) violated(t *xmltree.Tree, enc *cardinality.RegularEncoding) bool {
	from, to := enc.Regions[n.from], enc.Regions[n.to]
	have := map[string]bool{}
	for _, nd := range t.NodesMatching(to.Expr) {
		if v, ok := nd.Attr(to.Attr); ok {
			have[v] = true
		}
	}
	for _, nd := range t.NodesMatching(from.Expr) {
		if v, ok := nd.Attr(from.Attr); ok && !have[v] {
			return true
		}
	}
	return false
}

// repair retargets one from-region member to a fresh value outside the
// to-region's values, keeping Σ satisfied.
func (n negatedInclusion) repair(t *xmltree.Tree, enc *cardinality.RegularEncoding, set *constraint.Set) bool {
	from := enc.Regions[n.from]
	members := t.NodesMatching(from.Expr)
	for _, nd := range members {
		old, ok := nd.Attr(from.Attr)
		if !ok {
			continue
		}
		nd.SetAttr(from.Attr, "impl-sep")
		if constraint.Satisfies(t, set) && n.violated(t, enc) {
			return true
		}
		nd.SetAttr(from.Attr, old)
	}
	return false
}

// finish runs the solver and materializes a counterexample. The
// encoding may have used only the unary subset of Σ (encodedAll is
// false then); "Implied" from the subset is sound regardless, and
// counterexamples are verified against the full Σ. When the encoding
// path cannot produce a verified counterexample, a bounded exhaustive
// search over small trees takes one more shot before answering
// Unknown.
func finish(enc *cardinality.RegularEncoding, d *dtd.DTD, set *constraint.Set, encodedAll bool, neg negation, opts Options) (Result, error) {
	res, _ := cardinality.DecideFlow(enc.Flow, opts.ILP)
	switch res.Verdict {
	case ilp.Unsat:
		if encodedAll {
			return Result{Verdict: Implied}, nil
		}
		// Only the unary fragment refuted the negation — still sound:
		// every model of Σ is a model of the fragment.
		return Result{Verdict: Implied}, nil
	case ilp.Unknown:
		return Result{Verdict: Unknown, Diagnosis: "solver budget exhausted"}, nil
	case ilp.Sat:
		// A satisfiable negation is only a candidate counterexample;
		// fall through to witness verification below.
	}
	w, err := enc.Witness(res.Values, opts.WitnessMaxNodes)
	if err == nil && w.Conforms(d) == nil && constraint.Satisfies(w, set) {
		if neg.violated(w, enc) || neg.repair(w, enc, set) {
			return Result{Verdict: NotImplied, Counterexample: w}, nil
		}
	}
	// Fallback: bounded exhaustive search for a small counterexample.
	searchNodes := opts.SearchNodes
	if searchNodes == 0 {
		searchNodes = 5
	}
	bf := bruteforce.Decide(d, set, bruteforce.Options{
		MaxNodes: searchNodes,
		Extra:    func(t *xmltree.Tree) bool { return neg.violated(t, enc) },
	})
	if bf.Sat() {
		return Result{Verdict: NotImplied, Counterexample: bf.Witness}, nil
	}
	return Result{Verdict: Unknown, Diagnosis: "refutation system satisfiable but no verified counterexample was found"}, nil
}

// ReduceSATToNonImplication is the Proposition 3.6 transform: given
// (D, Σ) it builds D′ (adding fresh element types D_Y and E_X with a
// fresh attribute K under the root), a foreign key ψ and a key φ such
// that (D, Σ) is consistent iff (D′, Σ ∪ {ψ}) ⊬ φ. The fresh names
// avoid collision by construction suffixes.
func ReduceSATToNonImplication(d *dtd.DTD, set *constraint.Set) (*dtd.DTD, *constraint.Set, constraint.Key, error) {
	dy, ex, attr := freshName(d, "DY"), freshName(d, "EX"), "K"
	d2 := d.Clone()
	rootEl := d2.Element(d2.Root)
	d2.Define(d2.Root, contentmodel.NewSeq(
		rootEl.Content, contentmodel.Ref(dy), contentmodel.Ref(dy), contentmodel.Ref(ex),
	), rootEl.Attrs...)
	d2.Define(dy, contentmodel.Eps(), attr)
	d2.Define(ex, contentmodel.Eps(), attr)
	set2 := set.Clone()
	// ψ: D_Y.K ⊆ E_X.K with its key.
	set2.AddForeignKey(constraint.Inclusion{
		From: constraint.Target{Type: dy, Attrs: []string{attr}},
		To:   constraint.Target{Type: ex, Attrs: []string{attr}},
	})
	// φ: D_Y.K → D_Y. The two mandatory D_Y elements can share their K
	// value iff the rest of the document can exist at all.
	phi := constraint.Key{Target: constraint.Target{Type: dy, Attrs: []string{attr}}}
	if err := d2.Validate(); err != nil {
		return nil, nil, phi, err
	}
	return d2, set2, phi, nil
}

func freshName(d *dtd.DTD, base string) string {
	name := base
	for i := 0; d.Element(name) != nil; i++ {
		name = fmt.Sprintf("%s%d", base, i)
	}
	return name
}

// Package prover implements a rule-based saturation engine that
// derives cardinality and value-set facts from a DTD and a constraint
// set, and reports inconsistency when a contradictory fact pair
// saturates. It is the static-analysis counterpart of the ILP-backed
// decision procedures: strictly refutation-sound (a refutation implies
// the specification is inconsistent), always terminating, and — unlike
// the solvers — every refutation is an ordered list of rule
// applications that Replay re-checks step by step without any search.
//
// # Fact language
//
// Facts speak about scoped quantities. A scope is either the whole
// document ("" — one per document) or a context element type c (one
// scope per c node; facts at scope c are universally quantified over
// every c node of every conforming document, so they are vacuously true
// when no c node exists — see the scope-unsat rule). The quantities:
//
//   - count(τ)@s — number of τ nodes among the proper descendants of
//     the scope node (for s = "" the whole document, root included);
//   - ext(τ.l)@s and ext(β.τ.l) — number of distinct values of
//     attribute l over the τ nodes of the scope (optionally restricted
//     to nodes reached by the path expression β; path-carrying extents
//     are document-scoped regions).
//
// Fact kinds: Lower (q ≥ k), Upper (q ≤ k), Le (q1 + k ≤ q2),
// Sub (values(r1) ⊆ values(r2)), Disjoint (values(r1) ∩ values(r2) = ∅
// because a single key covers both node sets), and False (the scope's
// facts are contradictory).
//
// # Completeness fragment
//
// The engine is complete (prover-consistent ⇒ consistent) on the
// following fragment, checked by InFragment:
//
//   - the DTD is non-recursive and choice-free: content models use only
//     sequence, Kleene star and #PCDATA — no '|' and no '?';
//   - the DTD is duplicate-free with simple multiplicities: every
//     non-root element type is referenced by exactly one content model,
//     as some number u of bare occurrences plus at most one starred
//     occurrence (each parent node has exactly u, or at least u,
//     children of the type — this covers τ, τ+, τ* and exact
//     repetitions), and every star body is a single type reference;
//   - all constraints are unary, type-based and absolute (no paths, no
//     contexts), and every inclusion carries keys on BOTH sides.
//
// Because every type has a single parent reference, each count is a
// fixed multiple of the count of its nearest starred ancestor (or of
// the root, which is 1), so the realizable count vectors are the
// solutions of a system of exact intervals plus pairwise difference
// constraints; keys force ext(τ.l) = count(τ) and inclusions add
// ext ≤ ext edges. The engine derives exactly that system — dtd-lower/
// dtd-upper are the exact interval endpoints and dtd-gap the exact
// pairwise minimum differences — and its propagation rules (le-trans,
// lower-prop, upper-prop with the contra-* detectors) decide the
// feasibility of such difference systems. The general problem — unary
// keys and foreign keys over arbitrary non-recursive DTDs — is
// NP-hard (the paper's Theorem 3.2 reduction generates exactly such
// instances), so a polynomial saturation engine cannot be complete on
// all of it; outside the fragment the engine remains refutation-sound.
// The differential harness in differential_test.go checks both
// directions empirically.
package prover

import (
	"fmt"

	"repro/internal/constraint"
)

// Quantity identifies one saturation variable: a scoped node count or
// attribute extent (see the package comment for the semantics).
type Quantity struct {
	// Ext selects an attribute extent; false means a node count.
	Ext bool `json:"ext,omitempty"`
	// Path is the rendered path expression β restricting a regular
	// region's node set; empty for type-based quantities.
	Path string `json:"path,omitempty"`
	// Type is the element type τ.
	Type string `json:"type"`
	// Attr is the attribute l (extents only).
	Attr string `json:"attr,omitempty"`
	// Scope is the context element type; empty means whole-document.
	Scope string `json:"scope,omitempty"`
}

// String renders the quantity in the paper's notation.
func (q Quantity) String() string {
	var body string
	switch {
	case q.Ext && q.Path != "":
		body = fmt.Sprintf("ext(%s.%s.%s)", q.Path, q.Type, q.Attr)
	case q.Ext:
		body = fmt.Sprintf("ext(%s.%s)", q.Type, q.Attr)
	default:
		body = fmt.Sprintf("count(%s)", q.Type)
	}
	if q.Scope != "" {
		return body + " within each " + q.Scope
	}
	return body
}

// Region is the value set of a path-restricted attribute extent: the l
// values of the τ nodes reached by β. It is the Quantity (Ext, β, τ, l)
// at document scope, and Sub/Disjoint facts relate two of them.
type Region struct {
	Path string `json:"path"`
	Type string `json:"type"`
	Attr string `json:"attr"`
}

// String renders the region as β.τ.l.
func (r Region) String() string { return r.Path + "." + r.Type + "." + r.Attr }

// quantity returns the region's extent quantity.
func (r Region) quantity() Quantity {
	return Quantity{Ext: true, Path: r.Path, Type: r.Type, Attr: r.Attr}
}

// FactKind discriminates the fact variants.
type FactKind string

// The fact kinds.
const (
	// FactLower is Q1 ≥ K.
	FactLower FactKind = "lower"
	// FactUpper is Q1 ≤ K.
	FactUpper FactKind = "upper"
	// FactLe is Q1 + K ≤ Q2.
	FactLe FactKind = "le"
	// FactSub is values(R1) ⊆ values(R2).
	FactSub FactKind = "sub"
	// FactDisjoint is values(R1) ∩ values(R2) = ∅.
	FactDisjoint FactKind = "disjoint"
	// FactFalse records that the facts of Scope are contradictory: no
	// scope node can exist. At document scope this refutes the spec.
	FactFalse FactKind = "false"
)

// Fact is one derived statement. Which fields are meaningful depends on
// Kind; unused fields are zero.
type Fact struct {
	Kind FactKind `json:"kind"`
	Q1   Quantity `json:"q1,omitempty"`
	Q2   Quantity `json:"q2,omitempty"`
	K    int64    `json:"k,omitempty"`
	R1   Region   `json:"r1,omitempty"`
	R2   Region   `json:"r2,omitempty"`
	// Scope is the contradicted scope (FactFalse only).
	Scope string `json:"scope,omitempty"`
}

// String renders the fact for diagnostics and derivation printouts.
func (f Fact) String() string {
	switch f.Kind {
	case FactLower:
		return fmt.Sprintf("%s ≥ %d", f.Q1, f.K)
	case FactUpper:
		return fmt.Sprintf("%s ≤ %d", f.Q1, f.K)
	case FactLe:
		if f.K == 0 {
			return fmt.Sprintf("%s ≤ %s", f.Q1, f.Q2)
		}
		return fmt.Sprintf("%s + %d ≤ %s", f.Q1, f.K, f.Q2)
	case FactSub:
		return fmt.Sprintf("values(%s) ⊆ values(%s)", f.R1, f.R2)
	case FactDisjoint:
		return fmt.Sprintf("values(%s) ∩ values(%s) = ∅", f.R1, f.R2)
	case FactFalse:
		if f.Scope == "" {
			return "⊥ (no conforming document satisfies Σ)"
		}
		return fmt.Sprintf("⊥ within %q (no %q node can exist)", f.Scope, f.Scope)
	}
	return "unknown fact"
}

// Step is one rule application of a derivation: the derived fact, the
// rule that produced it, the indices of its premise steps (earlier in
// the same derivation) and the indices of the constraints it used
// (keys first in Σ order, then inclusions — see ConstraintAt).
type Step struct {
	Rule string `json:"rule"`
	Fact Fact   `json:"fact"`
	// Premises are indices of earlier steps in the same derivation.
	Premises []int `json:"premises,omitempty"`
	// Constraints are Σ indices (keys 0..|K|-1, then inclusions).
	Constraints []int `json:"constraints,omitempty"`
}

// Rule documents one inference rule of the fixed rule set. Sound rules
// may appear in refutation derivations; the soundcert vet pass checks
// that every rule the engine's refutation recorder cites is registered
// here with Sound set.
type Rule struct {
	Name  string
	Doc   string
	Sound bool
}

// Rules is the fixed rule set, in rough derivation order. Every rule is
// individually sound; the engine never applies anything outside this
// list, which is what makes derivations replayable.
var Rules = []Rule{
	{Name: "root-count", Sound: true,
		Doc: "every conforming document has exactly one root node: count(r) = 1"},
	{Name: "dtd-lower", Sound: true,
		Doc: "count(τ)@s ≥ its minimum over conforming scope subtrees (the DTD's count-bounds fold)"},
	{Name: "dtd-upper", Sound: true,
		Doc: "count(τ)@s ≤ its maximum over conforming scope subtrees, when finite (the DTD's count-bounds fold)"},
	{Name: "dtd-gap", Sound: true,
		Doc: "count(τ)@s + g ≤ count(σ)@s where g = min of count(σ)−count(τ) over conforming scope subtrees"},
	{Name: "key-ext", Sound: true,
		Doc: "a covering key τ.l → τ makes attribute values distinct, so count(τ)@s ≤ ext(τ.l)@s"},
	{Name: "attr-ext", Sound: true,
		Doc: "an attribute has at most one value per node: ext(τ.l)@s ≤ count(τ)@s"},
	{Name: "attr-pos", Sound: true,
		Doc: "every τ node carries its declared attributes: count(τ)@s ≥ 1 implies ext(τ.l)@s ≥ 1"},
	{Name: "incl-le", Sound: true,
		Doc: "an inclusion σ.x ⊆ τ.y maps distinct values to distinct values: ext(σ.x)@s ≤ ext(τ.y)@s"},
	{Name: "le-trans", Sound: true,
		Doc: "q1 + g1 ≤ q2 and q2 + g2 ≤ q3 give q1 + (g1+g2) ≤ q3"},
	{Name: "lower-prop", Sound: true,
		Doc: "q1 ≥ k and q1 + g ≤ q2 give q2 ≥ k + g"},
	{Name: "upper-prop", Sound: true,
		Doc: "q2 ≤ m and q1 + g ≤ q2 give q1 ≤ m − g"},
	{Name: "occ-div", Sound: true,
		Doc: "every word of σ's model has ≥ u ≥ 1 occurrences of τ, so count(τ) ≤ U forces count(σ) ≤ ⌊U/u⌋ in every scope"},
	{Name: "occ-sum", Sound: true,
		Doc: "every τ node is the scope root or a child of a referencing parent, so finite per-node ceilings and parent upper bounds cap count(τ)"},
	{Name: "zero-dom", Sound: true,
		Doc: "count(p) ≤ 0 forces count(t) ≤ 0 for every type t unreachable from the root without passing through p"},
	{Name: "scope-unsat", Sound: true,
		Doc: "a contradiction among the facts of scope c means no c node can exist: count(c) ≤ 0 at document scope"},
	{Name: "contra-interval", Sound: true,
		Doc: "q ≥ k and q ≤ m with k > m is a contradiction in the scope of q"},
	{Name: "contra-negative", Sound: true,
		Doc: "q ≤ m with m < 0 contradicts q ≥ 0 (counts and extents are non-negative)"},
	{Name: "contra-cycle", Sound: true,
		Doc: "q + g ≤ q with g ≥ 1 is a contradiction in the scope of q"},
	{Name: "incl-sub", Sound: true,
		Doc: "a regular inclusion β1.τ1.x ⊆ β2.τ2.y states values(β1.τ1.x) ⊆ values(β2.τ2.y)"},
	{Name: "sub-trans", Sound: true,
		Doc: "value-set inclusion is transitive"},
	{Name: "sub-lower", Sound: true,
		Doc: "ext(r1) ≥ k and values(r1) ⊆ values(r2) give ext(r2) ≥ k"},
	{Name: "key-disjoint", Sound: true,
		Doc: "a key whose node language covers two disjoint node languages over the same type and attribute makes their value sets disjoint"},
	{Name: "region-nonempty", Sound: true,
		Doc: "a region containing a path every conforming document must realize has ext ≥ 1"},
	{Name: "region-contra", Sound: true,
		Doc: "ext(r1) ≥ 1, values(r1) ⊆ values(r2) and values(r1) ∩ values(r2) = ∅ are contradictory"},
}

// RuleByName returns the registered rule, or nil.
func RuleByName(name string) *Rule {
	for i := range Rules {
		if Rules[i].Name == name {
			return &Rules[i]
		}
	}
	return nil
}

// ConstraintCount returns the number of Σ indices: keys first
// (0..len(Keys)-1), then inclusions.
func ConstraintCount(set *constraint.Set) int { return len(set.Keys) + len(set.Incls) }

// ConstraintAt renders the constraint at a Σ index (keys first, then
// inclusions), or "" for an out-of-range index.
func ConstraintAt(set *constraint.Set, idx int) string {
	if idx < 0 {
		return ""
	}
	if idx < len(set.Keys) {
		return set.Keys[idx].String()
	}
	idx -= len(set.Keys)
	if idx < len(set.Incls) {
		return set.Incls[idx].String()
	}
	return ""
}

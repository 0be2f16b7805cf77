package prover

// This file keeps the string-keyed saturation engine the dense one
// replaced — facts indexed by Quantity and Region values, the DTD folds
// memoized in maps keyed by type names, and the all-pairs le-trans scan
// — as a differential oracle. The production engine must derive the
// same facts in the same order under the same work budget, so every
// Outcome (refutation, derivation, fact count, fragment flag and
// exhaustion) is identical.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/pathre"
)

// ReferenceSaturate is Saturate(d, set) on the reference engine, for
// the external family and random-spec harness.
func ReferenceSaturate(d *dtd.DTD, set *constraint.Set) Outcome {
	return refAnalyze(d).refSaturate(set)
}

// RequireReferenceOutcome saturates set through the shared production
// Analysis a and through the shared reference Analysis ref, and fails
// unless the outcomes are identical, derivations included.
func RequireReferenceOutcome(t testing.TB, a *Analysis, ref *refAnalysis, set *constraint.Set, what string) Outcome {
	t.Helper()
	got, want := a.Saturate(set), ref.refSaturate(set)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: dense engine differs from the reference engine:\n got %+v\nwant %+v", what, got, want)
	}
	return got
}

// NewReferencePair returns a fresh production Analysis of d and a fresh
// reference Analysis of d, for sharing across saturations.
func NewReferencePair(d *dtd.DTD) (*Analysis, *refAnalysis) { return Analyze(d), refAnalyze(d) }

// refSaturate is the reference engine's Saturate over a shared
// reference Analysis.
func (a *refAnalysis) refSaturate(set *constraint.Set) Outcome {
	e := newRefEngine(a, set)
	e.seed()
	e.run()
	out := Outcome{
		Facts:     len(e.facts),
		Fragment:  set != nil && a.inFragment() && setInFragment(set),
		Exhausted: e.exhausted,
	}
	if e.refutedID >= 0 {
		out.Refuted = true
		out.Derivation = e.extract()
	}
	return out
}

// refAnalysis holds the DTD-only folds the saturation refEngine consults —
// count bounds, the occurrence and parent tables, the pairwise
// difference folds, reachability, and region automata — computed on
// first use and shared by every saturation run over the same DTD. A
// caller saturating many constraint sets over one DTD (the unsat-core
// minimizer re-saturates a subset per candidate) builds one refAnalysis
// and pays for each fold once.
//
// An refAnalysis is not safe for concurrent use: its memos fill in as
// runs consult them.
type refAnalysis struct {
	d         *dtd.DTD
	recursive bool

	counter   *refCounter
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

// refAnalyze prepares the DTD-only analysis of d. It computes nothing up
// front; each fold is built when a saturation first needs it.
func refAnalyze(d *dtd.DTD) *refAnalysis {
	return &refAnalysis{
		d:         d,
		recursive: d.IsRecursive(),
		diff:      map[[2]string]map[string]int{},
		reach:     map[string]map[string]bool{},
		dfas:      map[[2]string]*pathre.DFA{},
		forced:    map[[2]string]bool{},
	}
}

// countBounds returns the memoizing count-bounds folder.
func (a *refAnalysis) countBounds() *refCounter {
	if a.counter == nil {
		a.counter = newRefCounter(a.d)
	}
	return a.counter
}

// occTables returns the occurrence structure of the occ-div/occ-sum
// rules: the occurrence interval of every (parent, child) pair, and
// each type's referencing parents in d.Names order.
func (a *refAnalysis) occTables() (map[[2]string]occRange, map[string][]string) {
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
func (a *refAnalysis) minDiff(sigma, tau string) map[string]int {
	key := [2]string{sigma, tau}
	md, ok := a.diff[key]
	if !ok {
		md = minDiff(a.d, sigma, tau)
		a.diff[key] = md
	}
	return md
}

// reachableAvoiding returns the memoized reachableAvoiding(d, p).
func (a *refAnalysis) reachableAvoiding(p string) map[string]bool {
	reach, ok := a.reach[p]
	if !ok {
		reach = reachableAvoiding(a.d, p)
		a.reach[p] = reach
	}
	return reach
}

// nodeDFA returns the DFA of the unary target t's node language over
// the DTD's element types; r is t's region.
func (a *refAnalysis) nodeDFA(t constraint.Target, r Region) *pathre.DFA {
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
func (a *refAnalysis) forcedNonEmpty(r Region, dfa *pathre.DFA) bool {
	key := [2]string{r.Path, r.Type}
	v, ok := a.forced[key]
	if !ok {
		v = forcedNonEmpty(a.d, dfa)
		a.forced[key] = v
	}
	return v
}

// inFragment reports the DTD half of InFragment.
func (a *refAnalysis) inFragment() bool {
	if a.fragment == 0 {
		a.fragment = -1
		if dtdInFragment(a.d) {
			a.fragment = 1
		}
	}
	return a.fragment > 0
}

// refFactRec is one derived fact with its provenance.
type refFactRec struct {
	f    Fact
	rule string
	prem []int // fact ids
	cons []int // Σ indices
}

type refEngine struct {
	a         *refAnalysis
	d         *dtd.DTD
	set       *constraint.Set
	recursive bool

	scopes []string            // "" first, then contexts in Σ order
	rel    map[string][]string // relevant types per scope, ordered
	relSet map[string]map[string]bool

	// Best-fact indexes (fact ids into facts).
	lower   map[Quantity]int
	upper   map[Quantity]int
	le      map[[2]Quantity]int
	sub     map[[2]Region]int
	disj    map[[2]Region]int
	falseAt map[string]int

	// Deterministic iteration orders for the indexes above.
	qOrder      []Quantity
	qSeen       map[Quantity]bool
	lePairs     [][2]Quantity
	subPairs    [][2]Region
	falseScopes []string

	// extOf maps each type-based extent to its count quantity.
	extOf    map[Quantity]Quantity
	extOrder []Quantity

	// Region machinery (regular dialect).
	candidates []Region
	dfas       map[Region]*pathre.DFA

	// gapPaid records the (σ, τ) difference folds this run has charged
	// for; the folds themselves live in the shared refAnalysis.
	gapPaid map[[2]string]bool

	// Occurrence structure for the occ-div/occ-sum rules: the
	// refAnalysis tables, or none when the budget tripped before this run
	// paid for them.
	occ       map[[2]string]occRange
	parentsOf map[string][]string

	facts     []refFactRec
	refutedID int
	changed   bool
	work      int
	exhausted bool
}

func newRefEngine(a *refAnalysis, set *constraint.Set) *refEngine {
	return &refEngine{
		a:         a,
		d:         a.d,
		set:       set,
		recursive: a.recursive,
		rel:       map[string][]string{},
		relSet:    map[string]map[string]bool{},
		lower:     map[Quantity]int{},
		upper:     map[Quantity]int{},
		le:        map[[2]Quantity]int{},
		sub:       map[[2]Region]int{},
		disj:      map[[2]Region]int{},
		falseAt:   map[string]int{},
		qSeen:     map[Quantity]bool{},
		extOf:     map[Quantity]Quantity{},
		dfas:      map[Region]*pathre.DFA{},
		gapPaid:   map[[2]string]bool{},
		refutedID: -1,
	}
}

// ---------------------------------------------------------------- //
// Fact recording

func (e *refEngine) note(q Quantity) {
	if !e.qSeen[q] {
		e.qSeen[q] = true
		e.qOrder = append(e.qOrder, q)
	}
}

func (e *refEngine) add(rule string, f Fact, prem, cons []int) int {
	e.facts = append(e.facts, refFactRec{f: f, rule: rule, prem: prem, cons: cons})
	e.changed = true
	return len(e.facts) - 1
}

func refFactScope(f Fact) string {
	switch f.Kind {
	case FactFalse:
		return f.Scope
	case FactSub, FactDisjoint:
		return ""
	case FactLower, FactUpper, FactLe:
		return f.Q1.Scope
	}
	return ""
}

// derive records f if it improves on the known facts, tagged with the
// rule that produced it, the fact ids of its premises and the Σ indices
// of the constraints it used. Facts in an already-contradicted scope
// are moot and dropped; once the document scope is contradicted the
// refEngine stops recording altogether.
func (e *refEngine) derive(rule string, f Fact, prem, cons []int) {
	if e.refutedID >= 0 {
		return
	}
	s := refFactScope(f)
	if _, dead := e.falseAt[s]; dead {
		return
	}
	switch f.Kind {
	case FactLower:
		f.K = clampK(f.K)
		if f.K <= 0 {
			return // counts and extents are ≥ 0 implicitly
		}
		if id, ok := e.lower[f.Q1]; ok && e.facts[id].f.K >= f.K {
			return
		}
		e.note(f.Q1)
		e.lower[f.Q1] = e.add(rule, f, prem, cons)
	case FactUpper:
		f.K = clampK(f.K)
		if f.K >= gapCap {
			return // vacuous
		}
		if id, ok := e.upper[f.Q1]; ok && e.facts[id].f.K <= f.K {
			return
		}
		e.note(f.Q1)
		e.upper[f.Q1] = e.add(rule, f, prem, cons)
	case FactLe:
		if f.K < -gapCap {
			return // too weak to matter; raising it to a clamp would be unsound
		}
		if f.K > gapCap {
			f.K = gapCap // weakening the claim, still entailed
		}
		if f.Q1 == f.Q2 && f.K <= 0 {
			return // trivially true
		}
		key := [2]Quantity{f.Q1, f.Q2}
		if id, ok := e.le[key]; ok && e.facts[id].f.K >= f.K {
			return
		}
		if _, ok := e.le[key]; !ok {
			e.lePairs = append(e.lePairs, key)
		}
		e.note(f.Q1)
		e.note(f.Q2)
		e.le[key] = e.add(rule, f, prem, cons)
	case FactSub:
		if f.R1 == f.R2 {
			return
		}
		key := [2]Region{f.R1, f.R2}
		if _, ok := e.sub[key]; ok {
			return
		}
		e.subPairs = append(e.subPairs, key)
		e.sub[key] = e.add(rule, f, prem, cons)
	case FactDisjoint:
		key := [2]Region{f.R1, f.R2}
		if _, ok := e.disj[key]; ok {
			return
		}
		if _, ok := e.disj[[2]Region{f.R2, f.R1}]; ok {
			return
		}
		e.disj[key] = e.add(rule, f, prem, cons)
	case FactFalse:
		if _, ok := e.falseAt[f.Scope]; ok {
			return
		}
		id := e.add(rule, f, prem, cons)
		e.falseAt[f.Scope] = id
		e.falseScopes = append(e.falseScopes, f.Scope)
		if f.Scope == "" {
			e.refutedID = id
		}
	}
}

// ---------------------------------------------------------------- //
// Seeding

func refCountQ(typ, scope string) Quantity { return Quantity{Type: typ, Scope: scope} }

func refExtQ(typ, attr, scope string) Quantity {
	return Quantity{Ext: true, Type: typ, Attr: attr, Scope: scope}
}

func (e *refEngine) addRelevant(scope, typ string) {
	set := e.relSet[scope]
	if set == nil {
		set = map[string]bool{}
		e.relSet[scope] = set
		e.scopes = append(e.scopes, scope)
	}
	if !set[typ] {
		set[typ] = true
		e.rel[scope] = append(e.rel[scope], typ)
	}
}

func (e *refEngine) seed() {
	d, set := e.d, e.set
	// Active scopes and the types relevant at each: the document scope
	// always exists and covers the root, every context type, and the
	// types of absolute type-based constraints; a context scope covers
	// the types its constraints mention.
	e.addRelevant("", d.Root)
	for _, k := range set.Keys {
		if k.Context != "" {
			e.addRelevant("", k.Context)
			if typeBased(k.Target) {
				e.addRelevant(k.Context, k.Target.Type)
			}
		} else if typeBased(k.Target) {
			e.addRelevant("", k.Target.Type)
		}
	}
	for _, in := range set.Incls {
		if !typeBased(in.From) || !typeBased(in.To) {
			continue
		}
		if in.Context != "" {
			e.addRelevant("", in.Context)
			e.addRelevant(in.Context, in.From.Type)
			e.addRelevant(in.Context, in.To.Type)
		} else {
			e.addRelevant("", in.From.Type)
			e.addRelevant("", in.To.Type)
		}
	}

	// root-count: exactly one root node.
	rq := refCountQ(d.Root, "")
	e.derive("root-count", Fact{Kind: FactLower, Q1: rq, K: 1}, nil, nil)
	e.derive("root-count", Fact{Kind: FactUpper, Q1: rq, K: 1}, nil, nil)

	// Occurrence structure for occ-div/occ-sum: one content-model walk
	// per type, charged at len(d.Names) each. occ-sum is only sound over
	// the COMPLETE parent list, so if the budget trips during the build
	// the run uses no tables at all — the rules then contribute
	// nothing, which is sound.
	if !e.charge(len(d.Names) * len(d.Names)) {
		e.occ, e.parentsOf = e.a.occTables()
	}

	// DTD cardinality facts need the count folds, which are only exact
	// on non-recursive DTDs; recursive specs get no DTD facts (sound —
	// the refEngine just proves less).
	if !e.recursive {
		counter := e.a.countBounds()
		for _, s := range e.scopes {
			for _, tau := range e.rel[s] {
				var b Bounds
				if s == "" {
					b = counter.Node(d.Root, tau)
				} else {
					b = counter.Content(d.Element(s).Content, tau)
				}
				q := refCountQ(tau, s)
				if b.Min >= 1 {
					e.derive("dtd-lower", Fact{Kind: FactLower, Q1: q, K: int64(b.Min)}, nil, nil)
				}
				if b.Bounded {
					e.derive("dtd-upper", Fact{Kind: FactUpper, Q1: q, K: int64(b.Max)}, nil, nil)
				}
			}
		}
		for _, s := range e.scopes {
			for _, sigma := range e.rel[s] {
				for _, tau := range e.rel[s] {
					if e.exhausted {
						// Adversarially wide specs (hundreds of types) make
						// the pairwise gap analysis the dominant cost; the
						// remaining pairs just contribute no facts.
						return
					}
					if sigma == tau {
						continue
					}
					g := e.gap(s, sigma, tau)
					if g == negInf {
						continue
					}
					// count(σ) − count(τ) ≥ g, i.e. count(τ) + g ≤ count(σ).
					e.derive("dtd-gap", Fact{
						Kind: FactLe, Q1: refCountQ(tau, s), K: int64(g), Q2: refCountQ(sigma, s),
					}, nil, nil)
				}
			}
		}
	}

	// Attribute extents: declare every mentioned type-based extent at
	// its applicable scopes, with the generic ext ≤ count edge.
	for _, k := range set.Keys {
		if typeBased(k.Target) {
			e.seedExt(k.Target.Type, k.Target.Attrs[0], k.Context)
		}
	}
	for _, in := range set.Incls {
		if typeBased(in.From) && typeBased(in.To) {
			e.seedExt(in.From.Type, in.From.Attrs[0], in.Context)
			e.seedExt(in.To.Type, in.To.Attrs[0], in.Context)
		}
	}

	// key-ext: a covering key makes values distinct per node, so
	// count ≤ ext. An absolute key holds document-wide, hence at every
	// scope; a relative key only within its own context.
	for ki, k := range set.Keys {
		if !typeBased(k.Target) {
			continue
		}
		for _, s := range e.keyScopes(k) {
			e.derive("key-ext", Fact{
				Kind: FactLe,
				Q1:   refCountQ(k.Target.Type, s),
				Q2:   refExtQ(k.Target.Type, k.Target.Attrs[0], s),
			}, nil, []int{ki})
		}
	}

	// incl-le: an inclusion maps distinct source values into the target
	// value set. Unlike keys, an absolute inclusion constrains only the
	// document-wide value sets — it says nothing about any subtree — so
	// each inclusion contributes at exactly one scope.
	for ii, in := range set.Incls {
		if !typeBased(in.From) || !typeBased(in.To) {
			continue
		}
		s := in.Context
		e.derive("incl-le", Fact{
			Kind: FactLe,
			Q1:   refExtQ(in.From.Type, in.From.Attrs[0], s),
			Q2:   refExtQ(in.To.Type, in.To.Attrs[0], s),
		}, nil, []int{len(set.Keys) + ii})
	}

	e.seedRegions()
}

// seedExt registers the extent quantity of (τ, attr) at the scopes
// where a constraint with the given context can see it, with its
// attr-ext edge.
func (e *refEngine) seedExt(typ, attr, context string) {
	scopes := []string{context}
	if context == "" {
		// Absolute constraints mention document-wide quantities, but the
		// extent also exists at any context scope reasoning about τ.
		scopes = e.scopesWith(typ)
	}
	for _, s := range scopes {
		q := refExtQ(typ, attr, s)
		if _, seen := e.extOf[q]; seen {
			continue
		}
		cq := refCountQ(typ, s)
		e.extOf[q] = cq
		e.extOrder = append(e.extOrder, q)
		e.derive("attr-ext", Fact{Kind: FactLe, Q1: q, Q2: cq}, nil, nil)
	}
}

// scopesWith lists the scopes whose relevant set contains τ.
func (e *refEngine) scopesWith(typ string) []string {
	var out []string
	for _, s := range e.scopes {
		if e.relSet[s][typ] {
			out = append(out, s)
		}
	}
	return out
}

// keyScopes lists the scopes at which a key applies: its own context
// for a relative key; every scope mentioning the type for an absolute
// key (document-wide uniqueness implies per-scope uniqueness).
func (e *refEngine) keyScopes(k constraint.Key) []string {
	if k.Context != "" {
		return []string{k.Context}
	}
	return e.scopesWith(k.Target.Type)
}

// gap returns the minimum of count(σ) − count(τ) over the trees (scope
// "") or content forests (scope c) of the DTD, or negInf.
func (e *refEngine) gap(scope, sigma, tau string) int {
	key := [2]string{sigma, tau}
	if !e.gapPaid[key] {
		// A fresh pair costs one DTD-wide fold; charge accordingly so
		// the budget reflects real effort, not loop iterations.
		if e.charge(8 * len(e.d.Names)) {
			return negInf
		}
		e.gapPaid[key] = true
	}
	md := e.a.minDiff(sigma, tau)
	if scope == "" {
		return md[e.d.Root]
	}
	return wordDiff(e.d.Element(scope).Content, func(x string) int { return md[x] })
}

// seedRegions installs the regular-dialect value-set facts: inclusion
// subsets, key-induced disjointness between covered regions, and
// forced non-emptiness.
func (e *refEngine) seedRegions() {
	set := e.set
	hasPaths := false
	for _, k := range set.Keys {
		if k.Target.Path != nil {
			hasPaths = true
		}
	}
	for _, in := range set.Incls {
		if in.From.Path != nil || in.To.Path != nil {
			hasPaths = true
		}
	}
	if !hasPaths {
		return
	}
	candSeen := map[Region]bool{}
	addCand := func(t constraint.Target) Region {
		r := regionOf(t)
		if !candSeen[r] {
			candSeen[r] = true
			e.candidates = append(e.candidates, r)
			e.dfas[r] = e.a.nodeDFA(t, r)
		}
		return r
	}

	// incl-sub: the value-set reading of each inclusion.
	for ii, in := range set.Incls {
		if in.Context != "" || !in.From.Unary() || !in.To.Unary() {
			continue
		}
		from, to := addCand(in.From), addCand(in.To)
		e.derive("incl-sub", Fact{Kind: FactSub, R1: from, R2: to}, nil,
			[]int{len(set.Keys) + ii})
	}
	for _, k := range set.Keys {
		if k.Context == "" && k.Target.Unary() {
			addCand(k.Target)
		}
	}

	// key-disjoint: two regions over the same type and attribute whose
	// node languages are disjoint and both covered by one key have
	// disjoint value sets.
	for ki, k := range set.Keys {
		if k.Context != "" || !k.Target.Unary() {
			continue
		}
		kdfa := e.a.nodeDFA(k.Target, regionOf(k.Target))
		attr := k.Target.Attrs[0]
		for i := 0; i < len(e.candidates); i++ {
			r1 := e.candidates[i]
			if r1.Type != k.Target.Type || r1.Attr != attr || !kdfa.Contains(e.dfas[r1]) {
				continue
			}
			for j := i + 1; j < len(e.candidates); j++ {
				r2 := e.candidates[j]
				if r2.Type != k.Target.Type || r2.Attr != attr || !kdfa.Contains(e.dfas[r2]) {
					continue
				}
				if emptyIntersect(e.dfas[r1], e.dfas[r2]) {
					e.derive("key-disjoint", Fact{Kind: FactDisjoint, R1: r1, R2: r2},
						nil, []int{ki})
				}
			}
		}
	}

	// region-nonempty: a region every conforming document realizes.
	for _, r := range e.candidates {
		if e.a.forcedNonEmpty(r, e.dfas[r]) {
			e.derive("region-nonempty", Fact{Kind: FactLower, Q1: r.quantity(), K: 1}, nil, nil)
		}
	}
}

// ---------------------------------------------------------------- //
// Fixpoint

// charge books n units of work and reports whether the budget is gone.
// Rule loops bail out as soon as it trips, so a single round is bounded
// too, not just the round count.
func (e *refEngine) charge(n int) bool {
	e.work += n
	if e.work > maxWork {
		e.exhausted = true
	}
	return e.exhausted
}

// spent charges one unit of work.
func (e *refEngine) spent() bool { return e.charge(1) }

func (e *refEngine) run() {
	for round := 0; e.refutedID < 0 && !e.exhausted; round++ {
		// The lattice is finite: quantities and region pairs are fixed
		// after seeding (up to the few the propagation rules introduce),
		// gap chains converge in Bellman-Ford fashion, and positive
		// cycles are refuted by contra-cycle as soon as they close.
		if round >= len(e.qOrder)+len(e.subPairs)+16 {
			break
		}
		e.changed = false
		e.leTrans()
		e.propagate()
		e.occRules()
		e.attrPos()
		e.subTrans()
		e.subLower()
		e.contra()
		e.scopeUnsat()
		e.zeroDom()
		if !e.changed {
			break
		}
	}
}

func (e *refEngine) leTrans() {
	n := len(e.lePairs)
	for i := 0; i < n && e.refutedID < 0; i++ {
		p1 := e.lePairs[i]
		id1 := e.le[p1]
		g1 := e.facts[id1].f.K
		for j := 0; j < n; j++ {
			if e.spent() {
				return
			}
			p2 := e.lePairs[j]
			if p1[1] != p2[0] {
				continue
			}
			id2 := e.le[p2]
			e.derive("le-trans", Fact{
				Kind: FactLe, Q1: p1[0], K: g1 + e.facts[id2].f.K, Q2: p2[1],
			}, []int{id1, id2}, nil)
		}
	}
}

func (e *refEngine) propagate() {
	n := len(e.lePairs)
	for i := 0; i < n && e.refutedID < 0; i++ {
		if e.spent() {
			return
		}
		p := e.lePairs[i]
		leID := e.le[p]
		g := e.facts[leID].f.K
		if loID, ok := e.lower[p[0]]; ok {
			e.derive("lower-prop", Fact{
				Kind: FactLower, Q1: p[1], K: e.facts[loID].f.K + g,
			}, []int{loID, leID}, nil)
		}
		if upID, ok := e.upper[p[1]]; ok {
			e.derive("upper-prop", Fact{
				Kind: FactUpper, Q1: p[0], K: e.facts[upID].f.K - g,
			}, []int{upID, leID}, nil)
		}
	}
}

// occRules applies the two occurrence rules at every scope. Both rest
// on each node having exactly one parent, so they hold in any subtree:
//
//   - occ-div: if every word of σ's model contains ≥ u ≥ 1 occurrences
//     of τ, then count(τ)@s ≥ u·count(σ)@s, so an upper bound U on
//     count(τ)@s forces count(σ)@s ≤ ⌊U/u⌋.
//   - occ-sum: every counted τ node is a child of some parent node, so
//     when every parent type has a finite per-node ceiling and a known
//     upper bound, count(τ)@s ≤ base + Σ_σ maxOcc(σ,τ)·upper(σ)@s.
//     Context-scoped counts cover proper descendants of the scope node
//     only (the dtd folds use counter.Content), so the scope node
//     itself is never in count(s)@s and its children enter through
//     base = maxOcc(s,τ); at document scope the root node is counted
//     and parentless, so base = [τ = root].
//
// These are the multiplicative complements of lower-prop/upper-prop,
// whose additive gap facts cannot express count(τ) = u·count(σ);
// without them, divisibility conflicts on the fragment (a forced odd
// count of a type that occurs twice per parent) escape refutation.
func (e *refEngine) occRules() {
	for _, s := range e.scopes {
		for _, tau := range e.d.Names {
			if e.refutedID >= 0 || e.spent() {
				return
			}
			if upID, ok := e.upper[refCountQ(tau, s)]; ok {
				u := e.facts[upID].f.K
				for _, sigma := range e.parentsOf[tau] {
					lo := int64(e.occ[[2]string{sigma, tau}].Lo)
					if lo < 1 {
						continue
					}
					e.derive("occ-div", Fact{
						Kind: FactUpper, Q1: refCountQ(sigma, s), K: u / lo,
					}, []int{upID}, nil)
				}
			}
			parents := e.parentsOf[tau]
			if len(parents) == 0 {
				continue
			}
			var total int64
			if s == "" {
				if tau == e.d.Root {
					total = 1
				}
			} else {
				rootOcc := e.occ[[2]string{s, tau}].Hi
				if rootOcc >= occInf {
					continue // the scope node alone admits unboundedly many
				}
				total = int64(rootOcc)
			}
			prem := make([]int, 0, len(parents))
			bounded := true
			for _, sigma := range parents {
				hi := e.occ[[2]string{sigma, tau}].Hi
				upID, ok := e.upper[refCountQ(sigma, s)]
				if hi >= occInf || !ok {
					bounded = false
					break
				}
				total += int64(hi) * e.facts[upID].f.K
				if total > gapCap {
					total = gapCap
				}
				prem = append(prem, upID)
			}
			if bounded {
				e.derive("occ-sum", Fact{
					Kind: FactUpper, Q1: refCountQ(tau, s), K: total,
				}, prem, nil)
			}
		}
	}
}

func (e *refEngine) attrPos() {
	for _, q := range e.extOrder {
		if e.refutedID >= 0 {
			return
		}
		if loID, ok := e.lower[e.extOf[q]]; ok && e.facts[loID].f.K >= 1 {
			e.derive("attr-pos", Fact{Kind: FactLower, Q1: q, K: 1}, []int{loID}, nil)
		}
	}
}

func (e *refEngine) subTrans() {
	n := len(e.subPairs)
	for i := 0; i < n && e.refutedID < 0; i++ {
		p1 := e.subPairs[i]
		id1 := e.sub[p1]
		for j := 0; j < n; j++ {
			if e.spent() {
				return
			}
			p2 := e.subPairs[j]
			if p1[1] != p2[0] {
				continue
			}
			e.derive("sub-trans", Fact{Kind: FactSub, R1: p1[0], R2: p2[1]},
				[]int{id1, e.sub[p2]}, nil)
		}
	}
}

func (e *refEngine) subLower() {
	n := len(e.subPairs)
	for i := 0; i < n && e.refutedID < 0; i++ {
		p := e.subPairs[i]
		if loID, ok := e.lower[p[0].quantity()]; ok {
			e.derive("sub-lower", Fact{
				Kind: FactLower, Q1: p[1].quantity(), K: e.facts[loID].f.K,
			}, []int{loID, e.sub[p]}, nil)
		}
	}
}

func (e *refEngine) contra() {
	for _, q := range e.qOrder {
		if e.refutedID >= 0 {
			return
		}
		loID, lok := e.lower[q]
		upID, uok := e.upper[q]
		if lok && uok && e.facts[loID].f.K > e.facts[upID].f.K {
			e.derive("contra-interval", Fact{Kind: FactFalse, Scope: q.Scope},
				[]int{loID, upID}, nil)
		}
		if uok && e.facts[upID].f.K < 0 {
			e.derive("contra-negative", Fact{Kind: FactFalse, Scope: q.Scope},
				[]int{upID}, nil)
		}
	}
	for _, p := range e.lePairs {
		if e.refutedID >= 0 {
			return
		}
		if p[0] != p[1] {
			continue
		}
		if id := e.le[p]; e.facts[id].f.K >= 1 {
			e.derive("contra-cycle", Fact{Kind: FactFalse, Scope: p[0].Scope},
				[]int{id}, nil)
		}
	}
	for _, p := range e.subPairs {
		if e.refutedID >= 0 {
			return
		}
		dID, ok := e.disj[p]
		if !ok {
			dID, ok = e.disj[[2]Region{p[1], p[0]}]
		}
		if !ok {
			continue
		}
		if loID, lok := e.lower[p[0].quantity()]; lok && e.facts[loID].f.K >= 1 {
			e.derive("region-contra", Fact{Kind: FactFalse},
				[]int{loID, e.sub[p], dID}, nil)
		}
	}
}

func (e *refEngine) scopeUnsat() {
	for _, s := range e.falseScopes {
		if e.refutedID >= 0 {
			return
		}
		if s == "" {
			continue
		}
		e.derive("scope-unsat", Fact{Kind: FactUpper, Q1: refCountQ(s, "")},
			[]int{e.falseAt[s]}, nil)
	}
}

func (e *refEngine) zeroDom() {
	for _, q := range e.qOrder {
		if e.refutedID >= 0 {
			return
		}
		if q.Ext || q.Scope != "" || q.Path != "" || q.Type == e.d.Root {
			continue
		}
		upID, ok := e.upper[q]
		if !ok || e.facts[upID].f.K > 0 {
			continue
		}
		reach := e.a.reachableAvoiding(q.Type)
		for _, t := range e.rel[""] {
			if t != q.Type && !reach[t] {
				e.derive("zero-dom", Fact{Kind: FactUpper, Q1: refCountQ(t, "")},
					[]int{upID}, nil)
			}
		}
	}
}

// ---------------------------------------------------------------- //
// Derivation extraction

// extract returns the refutation subgraph reachable from the final
// contradiction, in derivation order (fact ids ascend along premise
// edges, so ascending id order is a topological order).
func (e *refEngine) extract() []Step {
	want := []int{e.refutedID}
	seen := map[int]bool{e.refutedID: true}
	for i := 0; i < len(want); i++ {
		for _, p := range e.facts[want[i]].prem {
			if !seen[p] {
				seen[p] = true
				want = append(want, p)
			}
		}
	}
	sort.Ints(want)
	idx := make(map[int]int, len(want))
	steps := make([]Step, len(want))
	for si, id := range want {
		idx[id] = si
		rec := e.facts[id]
		var prem []int
		for _, p := range rec.prem {
			prem = append(prem, idx[p])
		}
		steps[si] = Step{
			Rule:        rec.rule,
			Fact:        rec.f,
			Premises:    prem,
			Constraints: append([]int(nil), rec.cons...),
		}
	}
	return steps
}

// TestReferenceTestdata: every well-formed constraint subset of every
// testdata specification saturates identically on both engines, each
// through its own shared Analysis, forwards and then backwards over
// the warm memos; and a fresh Saturate per full spec matches too.
func TestReferenceTestdata(t *testing.T) {
	for _, p := range []struct{ dtd, keys string }{
		{"geography", "geography"},
		{"library", "library"},
		{"school", "school"},
		{"school", "school-extended"},
	} {
		d, set := loadSpec(t, p.dtd, p.keys)
		if got, want := Saturate(d, set), ReferenceSaturate(d, set); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: fresh outcome differs:\n got %+v\nwant %+v", p.keys, got, want)
		}
		a, ref := NewReferencePair(d)
		n := ConstraintCount(set)
		for pass := 0; pass < 2; pass++ {
			for m := uint64(0); m < 1<<n; m++ {
				mask := m
				if pass == 1 {
					mask = 1<<n - 1 - m
				}
				if sub := SubsetOf(d, set, mask); sub != nil {
					RequireReferenceOutcome(t, a, ref, sub, p.keys+" "+sub.String())
				}
			}
		}
	}
	d, set := fragmentRefutationSpec(t)
	a, ref := NewReferencePair(d)
	if out := RequireReferenceOutcome(t, a, ref, set, "fragment refutation"); !out.Refuted {
		t.Fatal("fragment refutation spec not refuted")
	}
}

// TestReferenceBudget: on the TestSaturateBudget inputs, where the work
// budget trips during the gap analysis, and on narrower ones of the
// same shape, where it trips inside le-trans, both engines stop at the
// same fact, alone and interleaved with smaller subsets on one shared
// Analysis.
func TestReferenceBudget(t *testing.T) {
	for _, c := range []struct {
		n    int
		mult string
	}{{200, "*"}, {200, ""}, {200, "+"}, {40, ""}, {45, ""}} {
		d, set := wideSpec(t, c.n, c.mult)
		mult := fmt.Sprintf("%d types %q", c.n, c.mult)
		a, ref := NewReferencePair(d)
		subsets := []*constraint.Set{
			set,
			{Keys: set.Keys[:3]},
			{Keys: set.Keys[:len(set.Keys)/2]},
			{Keys: set.Keys[:len(set.Keys)/8]},
			set,
		}
		exhausted := false
		for i, sub := range subsets {
			out := RequireReferenceOutcome(t, a, ref, sub, fmt.Sprintf("%s, subset %d", mult, i))
			exhausted = exhausted || out.Exhausted
		}
		if !exhausted {
			t.Fatalf("%s: no run tripped the budget", mult)
		}
	}
}

// TestReferenceInterleavedAnalysis: one shared Analysis saturating the
// subsets of two constraint sets over one DTD in interleaved orders —
// ascending masks alternating between the sets, then a shuffled order
// — matches the reference engine on every run.
func TestReferenceInterleavedAnalysis(t *testing.T) {
	d, plain := loadSpec(t, "school", "school")
	_, extended := loadSpec(t, "school", "school-extended")
	type run struct {
		set  *constraint.Set
		mask uint64
	}
	var runs []run
	np, ne := ConstraintCount(plain), ConstraintCount(extended)
	for m := uint64(0); m < 1<<max(np, ne); m++ {
		for _, set := range []*constraint.Set{extended, plain} {
			if m < 1<<ConstraintCount(set) {
				runs = append(runs, run{set, m})
			}
		}
	}
	shuffled := append([]run(nil), runs...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	a, ref := NewReferencePair(d)
	for _, r := range append(runs, shuffled...) {
		if sub := SubsetOf(d, r.set, r.mask); sub != nil {
			RequireReferenceOutcome(t, a, ref, sub, sub.String())
		}
	}
}

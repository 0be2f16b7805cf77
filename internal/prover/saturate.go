package prover

import (
	"sort"

	"repro/internal/cardinality"
	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/pathre"
)

// gapCap clamps every recorded constant. Values this large only arise
// from runaway positive cycles, which contra-cycle refutes long before
// the clamp matters; clamping keeps the fact lattice finite.
const gapCap = int64(1) << 30

// maxWork bounds the total rule-application attempts of one saturation
// run. Saturation is meant for human-scale specifications; adversarial
// inputs (the Figure 3 CNF/QBF reductions encode SAT into hundreds of
// types) would otherwise spend minutes closing a dense ≤-graph. When
// the budget trips the engine stops early: everything already derived
// stays sound, the run just proves less (Outcome.Exhausted). The bound
// keeps a worst-case run well under a second — saturation sits on the
// serving path ahead of deadline-aware procedures and cannot itself be
// interrupted.
const maxWork = 1 << 20

// Outcome is the result of one saturation run.
type Outcome struct {
	// Refuted reports that a document-scope contradiction saturated:
	// the specification is inconsistent.
	Refuted bool
	// Derivation is the refutation's ordered rule applications (empty
	// unless Refuted). Step premises refer to earlier steps; Replay
	// re-checks every application against (d, set).
	Derivation []Step
	// Facts is the number of facts derived (including improvements).
	Facts int
	// Fragment reports InFragment(d, set): when set, a non-refutation
	// is a consistency proof, not just an "unknown" — provided the run
	// completed (Exhausted false).
	Fragment bool
	// Exhausted is true when the work budget tripped before the
	// fixpoint: facts and any refutation remain sound, but a
	// non-refutation proves nothing even on the fragment.
	Exhausted bool
}

// Saturate derives facts from (d, set) under the fixed rule set until
// nothing improves, a contradiction saturates, or the (finite) fact
// lattice's round bound is hit. The spec must already be validated
// (d.Validate and set.Validate(d) both nil); Saturate never refutes
// specs it cannot soundly reason about — unknown shapes contribute no
// facts. It is Analyze(d).Saturate(set); callers saturating several
// constraint sets over one DTD should share the Analysis.
func Saturate(d *dtd.DTD, set *constraint.Set) Outcome {
	return Analyze(d).Saturate(set)
}

// Saturate runs one saturation of set over the analyzed DTD. The
// outcome is exactly Saturate(d, set)'s: every run charges the work
// budget for the DTD folds it uses as if it had computed them itself,
// so reuse changes neither Exhausted nor the facts nor the derivation.
func (a *Analysis) Saturate(set *constraint.Set) Outcome {
	e := newEngine(a, set)
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

// factRec is one derived fact with its provenance.
type factRec struct {
	f    Fact
	rule string
	prem []int // fact ids
	cons []int // Σ indices
}

type engine struct {
	a         *Analysis
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
	// for; the folds themselves live in the shared Analysis.
	gapPaid map[[2]string]bool

	// Occurrence structure for the occ-div/occ-sum rules: the
	// Analysis tables, or none when the budget tripped before this run
	// paid for them.
	occ       map[[2]string]occRange
	parentsOf map[string][]string

	facts     []factRec
	refutedID int
	changed   bool
	work      int
	exhausted bool
}

func newEngine(a *Analysis, set *constraint.Set) *engine {
	return &engine{
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

func (e *engine) note(q Quantity) {
	if !e.qSeen[q] {
		e.qSeen[q] = true
		e.qOrder = append(e.qOrder, q)
	}
}

func (e *engine) add(rule string, f Fact, prem, cons []int) int {
	e.facts = append(e.facts, factRec{f: f, rule: rule, prem: prem, cons: cons})
	e.changed = true
	return len(e.facts) - 1
}

func clampK(k int64) int64 {
	if k > gapCap {
		return gapCap
	}
	if k < -gapCap {
		return -gapCap
	}
	return k
}

func factScope(f Fact) string {
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
// engine stops recording altogether.
func (e *engine) derive(rule string, f Fact, prem, cons []int) {
	if e.refutedID >= 0 {
		return
	}
	s := factScope(f)
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

func countQ(typ, scope string) Quantity { return Quantity{Type: typ, Scope: scope} }

func extQ(typ, attr, scope string) Quantity {
	return Quantity{Ext: true, Type: typ, Attr: attr, Scope: scope}
}

// typeBased reports whether the target is a unary, path-free target —
// the shape the count/extent rules understand.
func typeBased(t constraint.Target) bool { return t.Path == nil && t.Unary() }

func (e *engine) addRelevant(scope, typ string) {
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

func (e *engine) seed() {
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
	rq := countQ(d.Root, "")
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
	// the engine just proves less).
	if !e.recursive {
		counter := e.a.countBounds()
		for _, s := range e.scopes {
			for _, tau := range e.rel[s] {
				var b cardinality.Bounds
				if s == "" {
					b = counter.Node(d.Root, tau)
				} else {
					b = counter.Content(d.Element(s).Content, tau)
				}
				q := countQ(tau, s)
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
						Kind: FactLe, Q1: countQ(tau, s), K: int64(g), Q2: countQ(sigma, s),
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
				Q1:   countQ(k.Target.Type, s),
				Q2:   extQ(k.Target.Type, k.Target.Attrs[0], s),
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
			Q1:   extQ(in.From.Type, in.From.Attrs[0], s),
			Q2:   extQ(in.To.Type, in.To.Attrs[0], s),
		}, nil, []int{len(set.Keys) + ii})
	}

	e.seedRegions()
}

// seedExt registers the extent quantity of (τ, attr) at the scopes
// where a constraint with the given context can see it, with its
// attr-ext edge.
func (e *engine) seedExt(typ, attr, context string) {
	scopes := []string{context}
	if context == "" {
		// Absolute constraints mention document-wide quantities, but the
		// extent also exists at any context scope reasoning about τ.
		scopes = e.scopesWith(typ)
	}
	for _, s := range scopes {
		q := extQ(typ, attr, s)
		if _, seen := e.extOf[q]; seen {
			continue
		}
		cq := countQ(typ, s)
		e.extOf[q] = cq
		e.extOrder = append(e.extOrder, q)
		e.derive("attr-ext", Fact{Kind: FactLe, Q1: q, Q2: cq}, nil, nil)
	}
}

// scopesWith lists the scopes whose relevant set contains τ.
func (e *engine) scopesWith(typ string) []string {
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
func (e *engine) keyScopes(k constraint.Key) []string {
	if k.Context != "" {
		return []string{k.Context}
	}
	return e.scopesWith(k.Target.Type)
}

// gap returns the minimum of count(σ) − count(τ) over the trees (scope
// "") or content forests (scope c) of the DTD, or negInf.
func (e *engine) gap(scope, sigma, tau string) int {
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
func (e *engine) seedRegions() {
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
func (e *engine) charge(n int) bool {
	e.work += n
	if e.work > maxWork {
		e.exhausted = true
	}
	return e.exhausted
}

// spent charges one unit of work.
func (e *engine) spent() bool { return e.charge(1) }

func (e *engine) run() {
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

func (e *engine) leTrans() {
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

func (e *engine) propagate() {
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
func (e *engine) occRules() {
	for _, s := range e.scopes {
		for _, tau := range e.d.Names {
			if e.refutedID >= 0 || e.spent() {
				return
			}
			if upID, ok := e.upper[countQ(tau, s)]; ok {
				u := e.facts[upID].f.K
				for _, sigma := range e.parentsOf[tau] {
					lo := int64(e.occ[[2]string{sigma, tau}].Lo)
					if lo < 1 {
						continue
					}
					e.derive("occ-div", Fact{
						Kind: FactUpper, Q1: countQ(sigma, s), K: u / lo,
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
				upID, ok := e.upper[countQ(sigma, s)]
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
					Kind: FactUpper, Q1: countQ(tau, s), K: total,
				}, prem, nil)
			}
		}
	}
}

func (e *engine) attrPos() {
	for _, q := range e.extOrder {
		if e.refutedID >= 0 {
			return
		}
		if loID, ok := e.lower[e.extOf[q]]; ok && e.facts[loID].f.K >= 1 {
			e.derive("attr-pos", Fact{Kind: FactLower, Q1: q, K: 1}, []int{loID}, nil)
		}
	}
}

func (e *engine) subTrans() {
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

func (e *engine) subLower() {
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

func (e *engine) contra() {
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

func (e *engine) scopeUnsat() {
	for _, s := range e.falseScopes {
		if e.refutedID >= 0 {
			return
		}
		if s == "" {
			continue
		}
		e.derive("scope-unsat", Fact{Kind: FactUpper, Q1: countQ(s, "")},
			[]int{e.falseAt[s]}, nil)
	}
}

func (e *engine) zeroDom() {
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
				e.derive("zero-dom", Fact{Kind: FactUpper, Q1: countQ(t, "")},
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
func (e *engine) extract() []Step {
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

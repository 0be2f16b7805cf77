package prover

import (
	"slices"

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
	e := a.newEngine(set)
	defer func() { a.spare = e }()
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

// factKind is the engine's compact FactKind.
type factKind uint8

const (
	kLower factKind = iota
	kUpper
	kLe
	kSub
	kDisjoint
	kFalse
)

// publicKind maps a factKind to its FactKind.
var publicKind = [...]FactKind{FactLower, FactUpper, FactLe, FactSub, FactDisjoint, FactFalse}

// fact is a Fact over engine ids. For lower and upper facts a is the
// quantity; a le fact reads a + k ≤ b over quantity ids; sub and
// disjoint facts relate region ids a and b; a false fact names scope
// id a.
type fact struct {
	kind factKind
	a, b int32
	k    int64
	// cited is 1 + the Σ index of the constraint the rule used, or 0.
	cited int32
}

// factRec is one derived fact with its provenance: the rule and the
// premises, which are fact ids stored in engine.prem.
type factRec struct {
	fact
	rule         string
	prem0, premN int32
}

// lePair is one ≤ edge a + k ≤ b and the id of its best fact; nextOut
// threads the edges leaving a in creation order.
type lePair struct {
	a, b, fact, nextOut int32
}

// subPair is one ⊆ edge between region ids and the id of its fact.
type subPair struct {
	a, b, fact int32
}

// extent describes a quantity id past the count block: a type-based
// attribute extent (region < 0) or the extent of candidate region.
type extent struct {
	typ, scope int32
	attr       string
	region     int32
	// count is the count quantity of a type-based extent registered by
	// seedExt (the attr-ext edge), or -1.
	count int32
}

// region is one candidate region with its node-language DFA and its
// extent quantity.
type region struct {
	r   Region
	dfa *pathre.DFA
	q   int32
}

// noFact marks an empty index cell.
const noFact = -1

// engine is one saturation run over dense ids (DESIGN.md §4, item 7,
// describes the layout).
type engine struct {
	a   *Analysis
	d   *dtd.DTD
	set *constraint.Set
	n   int32  // element types, numbered as in the Analysis
	id  uint32 // this run's number (Analysis.newRun)

	scopes  []int32   // scope id → context type id; scope 0 is the document (-1)
	scopeOf []int32   // type id → its scope id, or -1
	rel     [][]int32 // relevant types per scope id, in first-mention order
	relMark []bool    // relMark[s·n+τ]: τ is relevant at scope s

	// Quantity ids: count(τ)@s is s·n+τ, below nCount; extents follow,
	// described by ext[q−nCount].
	nCount   int32
	qScope   []int32 // scope id per quantity id
	ext      []extent
	extOrder []int32 // the extents registered by seedExt

	// Best-fact indexes by quantity id (noFact when none), and the
	// deterministic note order of quantities.
	lower, upper []int32
	qSeen        []bool
	qOrder       []int32

	// The ≤ graph: le maps a packed (q1, q2) to its lePairs index;
	// firstOut/lastOut[q] bound the list of pairs leaving q.
	le                map[uint64]int32
	lePairs           []lePair
	firstOut, lastOut []int32

	// Region machinery (regular dialect).
	regions  []region
	regionOf map[Region]int32
	sub      map[uint64]int32
	disj     map[uint64]int32
	subPairs []subPair

	falseAt     []int32 // per scope id
	falseScopes []int32

	// Occurrence table for the occ-div/occ-sum rules (Analysis.parents),
	// or none when the budget tripped before this run paid for it.
	parentStart []int32
	parents     []occEdge

	facts     []factRec
	prem      []int32
	premBuf   []int32
	refutedID int32
	changed   bool
	work      int
	exhausted bool
}

// newEngine returns an engine for one run of set, built on the
// buffers of the Analysis's previous run when there is one: every
// table is emptied, keeping its capacity.
func (a *Analysis) newEngine(set *constraint.Set) *engine {
	n := int32(len(a.d.Names))
	e := a.spare
	a.spare = nil
	if e == nil {
		e = &engine{scopeOf: filled(nil, int(n)), le: map[uint64]int32{}}
	} else {
		for _, c := range e.scopes {
			if c >= 0 {
				e.scopeOf[c] = -1
			}
		}
		clear(e.le)
		clear(e.regionOf)
		clear(e.sub)
		clear(e.disj)
	}
	*e = engine{
		a: a, d: a.d, set: set, n: n, id: a.newRun(), refutedID: noFact,
		scopeOf: e.scopeOf, le: e.le, regionOf: e.regionOf, sub: e.sub, disj: e.disj,
		scopes: e.scopes[:0], rel: e.rel[:0], relMark: e.relMark[:0],
		qScope: e.qScope[:0], ext: e.ext[:0], extOrder: e.extOrder[:0],
		lower: e.lower[:0], upper: e.upper[:0], qSeen: e.qSeen[:0], qOrder: e.qOrder[:0],
		lePairs: e.lePairs[:0], firstOut: e.firstOut[:0], lastOut: e.lastOut[:0],
		regions: e.regions[:0], subPairs: e.subPairs[:0],
		falseAt: e.falseAt[:0], falseScopes: e.falseScopes[:0],
		facts: e.facts[:0], prem: e.prem[:0], premBuf: e.premBuf[:0],
	}
	return e
}

// pack keys an ordered pair of ids.
func pack(x, y int32) uint64 { return uint64(uint32(x))<<32 | uint64(uint32(y)) }

// ---------------------------------------------------------------- //
// Ids

// countQ is the quantity id of count(τ)@s.
func (e *engine) countQ(typ, scope int32) int32 { return scope*e.n + typ }

// newQuantity appends an extent quantity and returns its id.
func (e *engine) newQuantity(x extent) int32 {
	q := e.nCount + int32(len(e.ext))
	e.ext = append(e.ext, x)
	e.qScope = append(e.qScope, x.scope)
	e.lower = append(e.lower, noFact)
	e.upper = append(e.upper, noFact)
	e.qSeen = append(e.qSeen, false)
	e.firstOut = append(e.firstOut, noFact)
	e.lastOut = append(e.lastOut, noFact)
	return q
}

// extQ returns the quantity id of ext(τ.attr)@s, creating it on first
// use.
func (e *engine) extQ(typ int32, attr string, scope int32) int32 {
	for i, x := range e.ext {
		if x.region < 0 && x.typ == typ && x.scope == scope && x.attr == attr {
			return e.nCount + int32(i)
		}
	}
	return e.newQuantity(extent{typ: typ, scope: scope, attr: attr, region: -1, count: -1})
}

// scopeID returns the scope id of a constraint context ("" is the
// document).
func (e *engine) scopeID(context string) int32 {
	if context == "" {
		return 0
	}
	t, _ := e.a.typeID(context)
	return e.scopeOf[t]
}

// typeOf returns the type id of a type-based target.
func (e *engine) typeOf(t constraint.Target) int32 {
	id, _ := e.a.typeID(t.Type)
	return id
}

// quantity materializes quantity q.
func (e *engine) quantity(q int32) Quantity {
	if q < e.nCount {
		return Quantity{Type: e.d.Names[q%e.n], Scope: e.scopeName(q / e.n)}
	}
	x := e.ext[q-e.nCount]
	if x.region >= 0 {
		return e.regions[x.region].r.quantity()
	}
	return Quantity{Ext: true, Type: e.d.Names[x.typ], Attr: x.attr, Scope: e.scopeName(x.scope)}
}

// scopeName returns the context type of scope id s, "" for the
// document.
func (e *engine) scopeName(s int32) string {
	if s == 0 {
		return ""
	}
	return e.d.Names[e.scopes[s]]
}

// publicFact materializes f.
func (e *engine) publicFact(f fact) Fact {
	out := Fact{Kind: publicKind[f.kind]}
	switch f.kind {
	case kLower, kUpper:
		out.Q1, out.K = e.quantity(f.a), f.k
	case kLe:
		out.Q1, out.K, out.Q2 = e.quantity(f.a), f.k, e.quantity(f.b)
	case kSub, kDisjoint:
		out.R1, out.R2 = e.regions[f.a].r, e.regions[f.b].r
	case kFalse:
		out.Scope = e.scopeName(f.a)
	}
	return out
}

// ---------------------------------------------------------------- //
// Fact recording

func (e *engine) note(q int32) {
	if !e.qSeen[q] {
		e.qSeen[q] = true
		e.qOrder = append(e.qOrder, q)
	}
}

func (e *engine) add(rule string, f fact, prem []int32) int32 {
	e.facts = append(e.facts, factRec{fact: f, rule: rule, prem0: int32(len(e.prem)), premN: int32(len(prem))})
	e.prem = append(e.prem, prem...)
	e.changed = true
	return int32(len(e.facts) - 1)
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

// factScope returns the scope id a fact speaks about.
func (e *engine) factScope(f fact) int32 {
	switch f.kind {
	case kFalse:
		return f.a
	case kSub, kDisjoint:
		return 0
	}
	return e.qScope[f.a]
}

// derive records f if it improves on the known facts, tagged with the
// rule that produced it and the fact ids of its premises (f.cited
// names the constraint it used). Facts in an already-contradicted
// scope are moot and dropped; once the document scope is contradicted
// the engine stops recording altogether.
func (e *engine) derive(rule string, f fact, prem ...int32) {
	if e.refutedID >= 0 || e.falseAt[e.factScope(f)] >= 0 {
		return
	}
	switch f.kind {
	case kLower:
		f.k = clampK(f.k)
		if f.k <= 0 {
			return // counts and extents are ≥ 0 implicitly
		}
		if id := e.lower[f.a]; id >= 0 && e.facts[id].k >= f.k {
			return
		}
		e.note(f.a)
		e.lower[f.a] = e.add(rule, f, prem)
	case kUpper:
		f.k = clampK(f.k)
		if f.k >= gapCap {
			return // vacuous
		}
		if id := e.upper[f.a]; id >= 0 && e.facts[id].k <= f.k {
			return
		}
		e.note(f.a)
		e.upper[f.a] = e.add(rule, f, prem)
	case kLe:
		if f.k < -gapCap {
			return // too weak to matter; raising it to a clamp would be unsound
		}
		if f.k > gapCap {
			f.k = gapCap // weakening the claim, still entailed
		}
		if f.a == f.b && f.k <= 0 {
			return // trivially true
		}
		i, ok := e.le[pack(f.a, f.b)]
		if ok && e.facts[e.lePairs[i].fact].k >= f.k {
			return
		}
		if !ok {
			i = int32(len(e.lePairs))
			e.lePairs = append(e.lePairs, lePair{a: f.a, b: f.b, nextOut: noFact})
			e.le[pack(f.a, f.b)] = i
			if last := e.lastOut[f.a]; last >= 0 {
				e.lePairs[last].nextOut = i
			} else {
				e.firstOut[f.a] = i
			}
			e.lastOut[f.a] = i
		}
		e.note(f.a)
		e.note(f.b)
		e.lePairs[i].fact = e.add(rule, f, prem)
	case kSub:
		if f.a == f.b {
			return
		}
		if _, ok := e.sub[pack(f.a, f.b)]; ok {
			return
		}
		id := e.add(rule, f, prem)
		e.sub[pack(f.a, f.b)] = id
		e.subPairs = append(e.subPairs, subPair{a: f.a, b: f.b, fact: id})
	case kDisjoint:
		if _, ok := e.disj[pack(f.a, f.b)]; ok {
			return
		}
		if _, ok := e.disj[pack(f.b, f.a)]; ok {
			return
		}
		e.disj[pack(f.a, f.b)] = e.add(rule, f, prem)
	case kFalse:
		id := e.add(rule, f, prem)
		e.falseAt[f.a] = id
		e.falseScopes = append(e.falseScopes, f.a)
		if f.a == 0 {
			e.refutedID = id
		}
	}
}

// ---------------------------------------------------------------- //
// Seeding

// typeBased reports whether the target is a unary, path-free target —
// the shape the count/extent rules understand.
func typeBased(t constraint.Target) bool { return t.Path == nil && t.Unary() }

// addRelevant marks τ relevant at the scope of the given context type
// (-1 for the document, which seed declares first), declaring a
// context's scope on first mention.
func (e *engine) addRelevant(context, typ int32) {
	s := int32(0)
	if context >= 0 {
		if s = e.scopeOf[context]; s < 0 {
			s = e.newScope(context)
		}
	}
	if !e.relMark[s*e.n+typ] {
		e.relMark[s*e.n+typ] = true
		e.rel[s] = append(e.rel[s], typ)
	}
}

// newScope declares the scope of a context type (-1: the document) and
// returns its id.
func (e *engine) newScope(context int32) int32 {
	s := int32(len(e.scopes))
	e.scopes = append(e.scopes, context)
	if context >= 0 {
		e.scopeOf[context] = s
	}
	if len(e.rel) < cap(e.rel) {
		e.rel = e.rel[:s+1]
		e.rel[s] = e.rel[s][:0]
	} else {
		e.rel = append(e.rel, nil)
	}
	e.relMark = append(e.relMark, make([]bool, e.n)...)
	return s
}

// declared reports whether every element type the constraints name is
// declared. Saturate requires a validated specification; an
// undeclared name makes the run derive nothing, which is sound.
func (e *engine) declared() bool {
	ok := func(name string) bool {
		_, known := e.a.typeID(name)
		return name == "" || known
	}
	if e.a.root < 0 {
		return false
	}
	for _, k := range e.set.Keys {
		if !ok(k.Context) || typeBased(k.Target) && !ok(k.Target.Type) {
			return false
		}
	}
	for _, in := range e.set.Incls {
		if !ok(in.Context) || typeBased(in.From) && !ok(in.From.Type) || typeBased(in.To) && !ok(in.To.Type) {
			return false
		}
	}
	return true
}

func (e *engine) seed() {
	d, set := e.d, e.set
	if !e.declared() {
		e.falseAt = filled(e.falseAt, 1)
		return
	}
	root := e.a.root
	// Active scopes and the types relevant at each: the document scope
	// always exists and covers the root, every context type, and the
	// types of absolute type-based constraints; a context scope covers
	// the types its constraints mention.
	e.newScope(-1)
	e.addRelevant(-1, root)
	for _, k := range set.Keys {
		if k.Context != "" {
			c, _ := e.a.typeID(k.Context)
			e.addRelevant(-1, c)
			if typeBased(k.Target) {
				e.addRelevant(c, e.typeOf(k.Target))
			}
		} else if typeBased(k.Target) {
			e.addRelevant(-1, e.typeOf(k.Target))
		}
	}
	for _, in := range set.Incls {
		if !typeBased(in.From) || !typeBased(in.To) {
			continue
		}
		if in.Context != "" {
			c, _ := e.a.typeID(in.Context)
			e.addRelevant(-1, c)
			e.addRelevant(c, e.typeOf(in.From))
			e.addRelevant(c, e.typeOf(in.To))
		} else {
			e.addRelevant(-1, e.typeOf(in.From))
			e.addRelevant(-1, e.typeOf(in.To))
		}
	}

	// The scopes are fixed now, so the count block of the quantity ids
	// is too.
	e.nCount = int32(len(e.scopes)) * e.n
	e.lower = filled(e.lower, int(e.nCount))
	e.upper = filled(e.upper, int(e.nCount))
	e.firstOut = filled(e.firstOut, int(e.nCount))
	e.lastOut = filled(e.lastOut, int(e.nCount))
	e.qSeen = append(e.qSeen, make([]bool, e.nCount)...)
	for s := range e.scopes {
		for range e.n {
			e.qScope = append(e.qScope, int32(s))
		}
	}
	e.falseAt = filled(e.falseAt, len(e.scopes))

	// root-count: exactly one root node.
	rq := e.countQ(root, 0)
	e.derive("root-count", fact{kind: kLower, a: rq, k: 1})
	e.derive("root-count", fact{kind: kUpper, a: rq, k: 1})

	// Occurrence structure for occ-div/occ-sum: one content-model walk
	// per type, charged at len(d.Names) each. occ-sum is only sound over
	// the COMPLETE parent list, so if the budget trips during the build
	// the run uses no tables at all — the rules then contribute
	// nothing, which is sound.
	if !e.charge(len(d.Names) * len(d.Names)) {
		e.parentStart, e.parents = e.a.occTables()
	}

	// DTD cardinality facts need the count folds, which are only exact
	// on non-recursive DTDs; recursive specs get no DTD facts (sound —
	// the engine just proves less).
	if !e.a.recursive {
		for s, context := range e.scopes {
			for _, tau := range e.rel[s] {
				b := e.a.countBounds(int(context+1), tau)
				q := e.countQ(tau, int32(s))
				if b.Min >= 1 {
					e.derive("dtd-lower", fact{kind: kLower, a: q, k: int64(b.Min)})
				}
				if b.Bounded {
					e.derive("dtd-upper", fact{kind: kUpper, a: q, k: int64(b.Max)})
				}
			}
		}
		for s, context := range e.scopes {
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
					g := e.gap(int(context+1), sigma, tau)
					if g == negInf {
						continue
					}
					// count(σ) − count(τ) ≥ g, i.e. count(τ) + g ≤ count(σ).
					e.derive("dtd-gap", fact{
						kind: kLe, a: e.countQ(tau, int32(s)), k: int64(g), b: e.countQ(sigma, int32(s)),
					})
				}
			}
		}
	}

	// Attribute extents: declare every mentioned type-based extent at
	// its applicable scopes, with the generic ext ≤ count edge.
	for _, k := range set.Keys {
		if typeBased(k.Target) {
			e.seedExt(e.typeOf(k.Target), k.Target.Attrs[0], k.Context)
		}
	}
	for _, in := range set.Incls {
		if typeBased(in.From) && typeBased(in.To) {
			e.seedExt(e.typeOf(in.From), in.From.Attrs[0], in.Context)
			e.seedExt(e.typeOf(in.To), in.To.Attrs[0], in.Context)
		}
	}

	// key-ext: a covering key makes values distinct per node, so
	// count ≤ ext. An absolute key holds document-wide, hence at every
	// scope; a relative key only within its own context.
	for ki, k := range set.Keys {
		if !typeBased(k.Target) {
			continue
		}
		typ := e.typeOf(k.Target)
		e.eachKeyScope(k, typ, func(s int32) {
			e.derive("key-ext", fact{
				kind:  kLe,
				a:     e.countQ(typ, s),
				b:     e.extQ(typ, k.Target.Attrs[0], s),
				cited: int32(ki) + 1,
			})
		})
	}

	// incl-le: an inclusion maps distinct source values into the target
	// value set. Unlike keys, an absolute inclusion constrains only the
	// document-wide value sets — it says nothing about any subtree — so
	// each inclusion contributes at exactly one scope.
	for ii, in := range set.Incls {
		if !typeBased(in.From) || !typeBased(in.To) {
			continue
		}
		s := e.scopeID(in.Context)
		e.derive("incl-le", fact{
			kind:  kLe,
			a:     e.extQ(e.typeOf(in.From), in.From.Attrs[0], s),
			b:     e.extQ(e.typeOf(in.To), in.To.Attrs[0], s),
			cited: int32(len(set.Keys)+ii) + 1,
		})
	}

	e.seedRegions()
}

// filled appends n cells holding noFact to buf.
func filled(buf []int32, n int) []int32 {
	buf = slices.Grow(buf, n)
	for range n {
		buf = append(buf, noFact)
	}
	return buf
}

// seedExt registers the extent quantity of (τ, attr) at the scopes
// where a constraint with the given context can see it, with its
// attr-ext edge.
func (e *engine) seedExt(typ int32, attr, context string) {
	if context != "" {
		e.seedExtAt(typ, attr, e.scopeID(context))
		return
	}
	// Absolute constraints mention document-wide quantities, but the
	// extent also exists at any context scope reasoning about τ.
	for s := range e.scopes {
		if e.relMark[int32(s)*e.n+typ] {
			e.seedExtAt(typ, attr, int32(s))
		}
	}
}

func (e *engine) seedExtAt(typ int32, attr string, s int32) {
	q := e.extQ(typ, attr, s)
	x := &e.ext[q-e.nCount]
	if x.count >= 0 {
		return
	}
	cq := e.countQ(typ, s)
	x.count = cq
	e.extOrder = append(e.extOrder, q)
	e.derive("attr-ext", fact{kind: kLe, a: q, b: cq})
}

// eachKeyScope calls f on every scope at which a key over type typ
// applies: its own context for a relative key; every scope mentioning
// the type for an absolute key (document-wide uniqueness implies
// per-scope uniqueness).
func (e *engine) eachKeyScope(k constraint.Key, typ int32, f func(s int32)) {
	if k.Context != "" {
		f(e.scopeID(k.Context))
		return
	}
	for s := range e.scopes {
		if e.relMark[int32(s)*e.n+typ] {
			f(int32(s))
		}
	}
}

// gap returns the minimum of count(σ) − count(τ) over the trees (row
// 0) or the content forests of a row−1 node, or negInf.
func (e *engine) gap(row int, sigma, tau int32) int {
	if e.a.payGap(e.id, sigma, tau) {
		// A fresh pair costs one DTD-wide fold; charge accordingly so
		// the budget reflects real effort, not loop iterations.
		if e.charge(8 * len(e.d.Names)) {
			return negInf
		}
	}
	return e.a.gap(row, sigma, tau)
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
	if e.regionOf == nil {
		e.regionOf = map[Region]int32{}
		e.sub = map[uint64]int32{}
		e.disj = map[uint64]int32{}
	}

	// incl-sub: the value-set reading of each inclusion.
	for ii, in := range set.Incls {
		if in.Context != "" || !in.From.Unary() || !in.To.Unary() {
			continue
		}
		from, to := e.candidate(in.From), e.candidate(in.To)
		e.derive("incl-sub", fact{kind: kSub, a: from, b: to, cited: int32(len(set.Keys)+ii) + 1})
	}
	for _, k := range set.Keys {
		if k.Context == "" && k.Target.Unary() {
			e.candidate(k.Target)
		}
	}

	// key-disjoint: two regions over the same type and attribute whose
	// node languages are disjoint and both covered by one key have
	// disjoint value sets.
	for ki, k := range set.Keys {
		if k.Context != "" || !k.Target.Unary() {
			continue
		}
		kdfa := e.a.nodeDFA(regionOf(k.Target), targetPath(k.Target))
		attr := k.Target.Attrs[0]
		covered := func(r region) bool {
			return r.r.Type == k.Target.Type && r.r.Attr == attr && kdfa.Contains(r.dfa)
		}
		for i := 0; i < len(e.regions); i++ {
			if !covered(e.regions[i]) {
				continue
			}
			for j := i + 1; j < len(e.regions); j++ {
				if covered(e.regions[j]) && emptyIntersect(e.regions[i].dfa, e.regions[j].dfa) {
					e.derive("key-disjoint", fact{kind: kDisjoint, a: int32(i), b: int32(j), cited: int32(ki) + 1})
				}
			}
		}
	}

	// region-nonempty: a region every conforming document realizes.
	for _, r := range e.regions {
		if e.a.forcedNonEmpty(r.r, r.dfa) {
			e.derive("region-nonempty", fact{kind: kLower, a: r.q, k: 1})
		}
	}
}

// candidate returns the region id of a unary target, declaring the
// region and its extent quantity on first mention.
func (e *engine) candidate(t constraint.Target) int32 {
	r := regionOf(t)
	if id, ok := e.regionOf[r]; ok {
		return id
	}
	id := int32(len(e.regions))
	e.regionOf[r] = id
	e.regions = append(e.regions, region{r: r, dfa: e.a.nodeDFA(r, targetPath(t)), q: e.newQuantity(extent{region: id, count: -1})})
	return id
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

// leTrans chains every pair of ≤ edges that existed when the round
// began. Row i joins edge i with the edges leaving its target, visited
// in ascending edge order; it charges the work budget one unit per
// edge of the round, as a scan of all of them would, and when the
// budget trips mid-row it stops at the edge where the scan would have.
func (e *engine) leTrans() {
	n := int32(len(e.lePairs))
	for i := int32(0); i < n && e.refutedID < 0; i++ {
		p1 := e.lePairs[i]
		g1 := e.facts[p1.fact].k
		end, tripped := n, false
		if left := maxWork - e.work; left < int(n) {
			end, tripped = int32(left), true
		}
		for j := e.firstOut[p1.b]; j >= 0 && j < end; j = e.lePairs[j].nextOut {
			p2 := e.lePairs[j]
			e.derive("le-trans", fact{kind: kLe, a: p1.a, k: g1 + e.facts[p2.fact].k, b: p2.b},
				p1.fact, p2.fact)
		}
		if tripped {
			e.charge(int(end) + 1)
			return
		}
		e.charge(int(n))
	}
}

func (e *engine) propagate() {
	n := len(e.lePairs)
	for i := 0; i < n && e.refutedID < 0; i++ {
		if e.spent() {
			return
		}
		p := e.lePairs[i]
		g := e.facts[p.fact].k
		if loID := e.lower[p.a]; loID >= 0 {
			e.derive("lower-prop", fact{kind: kLower, a: p.b, k: e.facts[loID].k + g}, loID, p.fact)
		}
		if upID := e.upper[p.b]; upID >= 0 {
			e.derive("upper-prop", fact{kind: kUpper, a: p.a, k: e.facts[upID].k - g}, upID, p.fact)
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
	for s, context := range e.scopes {
		s := int32(s)
		for tau := int32(0); tau < e.n; tau++ {
			if e.refutedID >= 0 || e.spent() {
				return
			}
			var parents []occEdge
			if e.parentStart != nil {
				parents = e.parents[e.parentStart[tau]:e.parentStart[tau+1]]
			}
			if upID := e.upper[e.countQ(tau, s)]; upID >= 0 {
				u := e.facts[upID].k
				for _, p := range parents {
					if p.Lo < 1 {
						continue
					}
					e.derive("occ-div", fact{kind: kUpper, a: e.countQ(p.sigma, s), k: u / int64(p.Lo)}, upID)
				}
			}
			if len(parents) == 0 {
				continue
			}
			var total int64
			if context < 0 {
				if tau == e.a.root {
					total = 1
				}
			} else {
				rootOcc := 0
				for _, p := range parents {
					if p.sigma == context {
						rootOcc = p.Hi
					}
				}
				if rootOcc >= occInf {
					continue // the scope node alone admits unboundedly many
				}
				total = int64(rootOcc)
			}
			prem := e.premBuf[:0]
			bounded := true
			for _, p := range parents {
				upID := e.upper[e.countQ(p.sigma, s)]
				if p.Hi >= occInf || upID < 0 {
					bounded = false
					break
				}
				total += int64(p.Hi) * e.facts[upID].k
				if total > gapCap {
					total = gapCap
				}
				prem = append(prem, upID)
			}
			e.premBuf = prem
			if bounded {
				e.derive("occ-sum", fact{kind: kUpper, a: e.countQ(tau, s), k: total}, prem...)
			}
		}
	}
}

func (e *engine) attrPos() {
	for _, q := range e.extOrder {
		if e.refutedID >= 0 {
			return
		}
		if loID := e.lower[e.ext[q-e.nCount].count]; loID >= 0 && e.facts[loID].k >= 1 {
			e.derive("attr-pos", fact{kind: kLower, a: q, k: 1}, loID)
		}
	}
}

func (e *engine) subTrans() {
	n := len(e.subPairs)
	for i := 0; i < n && e.refutedID < 0; i++ {
		p1 := e.subPairs[i]
		for j := 0; j < n; j++ {
			if e.spent() {
				return
			}
			p2 := e.subPairs[j]
			if p1.b != p2.a {
				continue
			}
			e.derive("sub-trans", fact{kind: kSub, a: p1.a, b: p2.b}, p1.fact, p2.fact)
		}
	}
}

func (e *engine) subLower() {
	n := len(e.subPairs)
	for i := 0; i < n && e.refutedID < 0; i++ {
		p := e.subPairs[i]
		if loID := e.lower[e.regions[p.a].q]; loID >= 0 {
			e.derive("sub-lower", fact{kind: kLower, a: e.regions[p.b].q, k: e.facts[loID].k}, loID, p.fact)
		}
	}
}

func (e *engine) contra() {
	for _, q := range e.qOrder {
		if e.refutedID >= 0 {
			return
		}
		loID, upID := e.lower[q], e.upper[q]
		if loID >= 0 && upID >= 0 && e.facts[loID].k > e.facts[upID].k {
			e.derive("contra-interval", fact{kind: kFalse, a: e.qScope[q]}, loID, upID)
		}
		if upID >= 0 && e.facts[upID].k < 0 {
			e.derive("contra-negative", fact{kind: kFalse, a: e.qScope[q]}, upID)
		}
	}
	for i, n := 0, len(e.lePairs); i < n; i++ {
		if e.refutedID >= 0 {
			return
		}
		if p := e.lePairs[i]; p.a == p.b && e.facts[p.fact].k >= 1 {
			e.derive("contra-cycle", fact{kind: kFalse, a: e.qScope[p.a]}, p.fact)
		}
	}
	for _, p := range e.subPairs {
		if e.refutedID >= 0 {
			return
		}
		dID, ok := e.disj[pack(p.a, p.b)]
		if !ok {
			dID, ok = e.disj[pack(p.b, p.a)]
		}
		if !ok {
			continue
		}
		if loID := e.lower[e.regions[p.a].q]; loID >= 0 && e.facts[loID].k >= 1 {
			e.derive("region-contra", fact{kind: kFalse}, loID, p.fact, dID)
		}
	}
}

func (e *engine) scopeUnsat() {
	for _, s := range e.falseScopes {
		if e.refutedID >= 0 {
			return
		}
		if s == 0 {
			continue
		}
		e.derive("scope-unsat", fact{kind: kUpper, a: e.countQ(e.scopes[s], 0)}, e.falseAt[s])
	}
}

func (e *engine) zeroDom() {
	for _, q := range e.qOrder {
		if e.refutedID >= 0 {
			return
		}
		// Only document-scope type counts: ids below n.
		if q >= e.n || q == e.a.root {
			continue
		}
		upID := e.upper[q]
		if upID < 0 || e.facts[upID].k > 0 {
			continue
		}
		reach := e.a.reachableAvoiding(q)
		for _, t := range e.rel[0] {
			if t != q && !reach[t] {
				e.derive("zero-dom", fact{kind: kUpper, a: e.countQ(t, 0)}, upID)
			}
		}
	}
}

// ---------------------------------------------------------------- //
// Derivation extraction

// extract returns the refutation subgraph reachable from the final
// contradiction, in derivation order (fact ids ascend along premise
// edges, so ascending id order is a topological order). It is the
// only place that materializes public facts.
func (e *engine) extract() []Step {
	// step[id] is 1 + the step index of fact id, 0 if not in the proof.
	step := make([]int32, len(e.facts))
	want := []int32{e.refutedID}
	step[e.refutedID] = 1
	for i := 0; i < len(want); i++ {
		rec := &e.facts[want[i]]
		for _, p := range e.prem[rec.prem0 : rec.prem0+rec.premN] {
			if step[p] == 0 {
				step[p] = 1
				want = append(want, p)
			}
		}
	}
	slices.Sort(want)
	steps := make([]Step, len(want))
	for si, id := range want {
		step[id] = int32(si) + 1
		rec := &e.facts[id]
		var prem []int
		if rec.premN > 0 {
			prem = make([]int, rec.premN)
			for j, p := range e.prem[rec.prem0 : rec.prem0+rec.premN] {
				prem[j] = int(step[p] - 1)
			}
		}
		var cons []int
		if rec.cited > 0 {
			cons = []int{int(rec.cited - 1)}
		}
		steps[si] = Step{
			Rule:        rec.rule,
			Fact:        e.publicFact(rec.fact),
			Premises:    prem,
			Constraints: cons,
		}
	}
	return steps
}

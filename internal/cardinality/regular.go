package cardinality

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/ilp"
	"repro/internal/pathre"
	"repro/internal/xmltree"
)

// MaxRegions caps the number of distinct β.τ.l targets in a regular
// constraint set: the cell construction of Lemma 4 introduces 2^k - 1
// variables for k targets, which is the paper's NEXPTIME bound made
// concrete. Encodings above the cap are refused rather than attempted.
const MaxRegions = 14

// Region is one β.τ.l target appearing in a regular constraint set,
// together with its automaton and variables: NodesVar is
// |nodes_D(β.τ)| and ValuesVar is |values_D(β.τ.l)|.
type Region struct {
	Beta *pathre.Expr
	Type string
	Attr string
	// Expr is the full path language β.τ (from the root).
	Expr *pathre.Expr
	DFA  *pathre.DFA
	// Keyed reports whether Σ contains the key β.τ.l → β.τ.
	Keyed     bool
	NodesVar  ilp.Var
	ValuesVar ilp.Var

	// path is Expr.String() and id is path#Attr, the region's
	// identity; both are rendered once.
	path, id string
}

// RegularEncoding is Ψ(D, Σ) for AC^reg constraint sets: the
// state-tagged flow Ψ_D^Σ of Lemma 6 plus the cell-based C_Σ of
// Lemma 4.
type RegularEncoding struct {
	Flow    *Flow
	D       *dtd.DTD
	Set     *constraint.Set
	Product *pathre.Product
	Regions []*Region
	// CellVars[m] is z_θ for the bitmask m over Regions (bit i set
	// means θ(i) = 1); masks run over 1 … 2^k - 1, and CellVars[0] is
	// unused. Nil when there are no regions.
	CellVars []ilp.Var
}

// NumCells returns the number of cell variables, 2^k - 1 for k
// regions.
func (e *RegularEncoding) NumCells() int { return max(len(e.CellVars)-1, 0) }

// EncodeRegular compiles a unary absolute constraint set (type-based
// and/or path-based) over the DTD into the Theorem 3.4 system. The
// encoding is exact: a solution exists iff the specification is
// consistent (given connected support; see the decide loop).
func EncodeRegular(d *dtd.DTD, set *constraint.Set) (*RegularEncoding, error) {
	f := DTDForm{D: d}
	return f.EncodeRegularWithTargets(set, nil)
}

// EncodeRegularWithTargets is EncodeRegular with additional tracked
// targets: each extra target becomes a region with nodes/values/cell
// variables but contributes no constraint of its own. The implication
// checker uses this to track the constraint being refuted.
func EncodeRegularWithTargets(d *dtd.DTD, set *constraint.Set, extra []constraint.Target) (*RegularEncoding, error) {
	f := DTDForm{D: d}
	return f.EncodeRegularWithTargets(set, extra)
}

// EncodeRegular is the package-level EncodeRegular over the form's
// DTD, taking the narrowing and the region automata from the form.
func (f *DTDForm) EncodeRegular(set *constraint.Set) (*RegularEncoding, error) {
	return f.EncodeRegularWithTargets(set, nil)
}

// EncodeRegularWithTargets is the package-level
// EncodeRegularWithTargets over the form's DTD.
func (f *DTDForm) EncodeRegularWithTargets(set *constraint.Set, extra []constraint.Target) (*RegularEncoding, error) {
	d := f.D
	prof := constraint.Classify(set)
	if prof.Relative {
		return nil, fmt.Errorf("cardinality: EncodeRegular does not handle relative constraints")
	}
	if prof.MaxKeyArity > 1 || prof.MaxIncArity > 1 {
		return nil, fmt.Errorf("cardinality: EncodeRegular requires unary constraints")
	}
	enc := &RegularEncoding{D: d, Set: set}

	// Collect the distinct β.τ.l targets.
	addRegion := func(t constraint.Target) int {
		expr := regionExpr(d, t)
		path := expr.String()
		id := path + "#" + t.Attrs[0]
		for i, r := range enc.Regions {
			if r.id == id {
				return i
			}
		}
		enc.Regions = append(enc.Regions, &Region{Beta: t.Path, Type: t.Type, Attr: t.Attrs[0], Expr: expr, path: path, id: id})
		return len(enc.Regions) - 1
	}
	type incl struct{ from, to int }
	var incls []incl
	for _, k := range set.Keys {
		enc.Regions[addRegion(k.Target)].Keyed = true
	}
	for _, c := range set.Incls {
		incls = append(incls, incl{addRegion(c.From), addRegion(c.To)})
	}
	for _, t := range extra {
		addRegion(t)
	}
	k := len(enc.Regions)
	if k > MaxRegions {
		return nil, fmt.Errorf("cardinality: %d distinct β.τ.l targets exceed the %d-region cap (the encoding is exponential in this count)", k, MaxRegions)
	}

	// The automata and the product, over the element alphabet.
	dfas := make([]*pathre.DFA, k)
	for i, r := range enc.Regions {
		dfas[i] = f.regionDFA(r)
		r.DFA = dfas[i]
	}
	if k == 0 {
		// No constraints: a single-state product suffices.
		dfas = []*pathre.DFA{f.anyDFA()}
	}
	product := pathre.NewProduct(dfas)
	enc.Product = product

	sys := ilp.NewSystem()
	enc.Flow = BuildFlow(sys, f.Narrowed(), product)
	elements := enc.Flow.ElementNodes()
	// accepts[e] is the set of regions whose automaton accepts at
	// element node elements[e] (Lemma 5: the node is in nodes_D(β_i)).
	accepts := make([]uint, len(elements))
	for e, fn := range elements {
		for i := range enc.Regions {
			if product.AcceptsComponent(enc.Flow.Nodes[fn].State, i) {
				accepts[e] |= 1 << uint(i)
			}
		}
	}

	// nodes_D(β.τ) = Σ of the element counts at accepting states.
	// Regions with the same path share their nodes variable.
	members := make([]ilp.Var, 0, len(elements))
	for i, r := range enc.Regions {
		r.NodesVar = -1
		for _, o := range enc.Regions[:i] {
			if o.path == r.path {
				r.NodesVar = o.NodesVar
				break
			}
		}
		if r.NodesVar < 0 {
			r.NodesVar = sys.NewVarFunc(func(b []byte) []byte {
				return append(append(append(b, "nodes("...), r.path...), ')')
			})
		}
		members = members[:0]
		for e, fn := range elements {
			if accepts[e]&(1<<uint(i)) != 0 {
				members = append(members, enc.Flow.Vars[fn])
			}
		}
		sys.AddSumEQ(r.NodesVar, members)
		r.ValuesVar = sys.NewVarFunc(func(b []byte) []byte {
			return append(append(append(b, "values("...), r.id...), ')')
		})
		sys.AddVarLE(r.ValuesVar, r.NodesVar)
		sys.AddCondVar(r.NodesVar, r.ValuesVar)
		if r.Keyed {
			sys.AddGE([]ilp.Term{ilp.T(1, r.ValuesVar), ilp.T(-1, r.NodesVar)}, 0)
		}
	}
	if k == 0 {
		sys.MarkBase()
		return enc, nil
	}

	// Cell variables z_θ and the value-set equations.
	cells := uint(1) << uint(k)
	enc.CellVars = make([]ilp.Var, cells)
	for m := uint(1); m < cells; m++ {
		enc.CellVars[m] = sys.NewVarFunc(func(b []byte) []byte {
			return append(strconv.AppendUint(append(b, "z("...), uint64(m), 2), ')')
		})
	}
	// terms is the scratch row every cell constraint is built in; the
	// system copies each row it adds.
	var terms []ilp.Term
	for i, r := range enc.Regions {
		terms = enc.cellTerms(terms[:0], 1<<uint(i), 0)
		terms = append(terms, ilp.T(-1, r.ValuesVar))
		sys.AddEQ(terms, 0)
	}
	// Inclusion constraints and language containments empty the
	// cells with θ(i)=1, θ(j)=0.
	zeroDiff := func(i, j int) {
		terms = enc.cellTerms(terms[:0], 1<<uint(i), 1<<uint(j))
		if len(terms) > 0 {
			sys.AddEQ(terms, 0)
		}
	}
	for _, c := range incls {
		zeroDiff(c.from, c.to)
	}
	// Region subsumption: if every reachable element position that
	// lies in region i also lies in region j (same attribute), then
	// values_D(i) ⊆ values_D(j) in every conforming tree. Checking
	// subsumption on the DTD-reachable product states is strictly
	// tighter than the paper's syntactic containment β_i ⊆ β_j and is
	// what makes the encoding exact for regions that coincide only on
	// realizable paths.
	for i, ri := range enc.Regions {
		for j, rj := range enc.Regions {
			if i != j && ri.Attr == rj.Attr && subsumes(accepts, i, j) {
				zeroDiff(i, j)
			}
		}
	}
	// Pattern positivity, in ascending pattern order: a node lying in
	// all regions of a pattern P carries one value that must be in
	// every S_i, i ∈ P — so some cell θ ⊇ P must be nonempty whenever
	// such nodes exist.
	patterns := enc.patterns(accepts)
	var ifTerms []ilp.Term
	for _, p := range patterns {
		if popcount(p.mask) < 2 {
			continue // singletons are the "values ≥ 1" conditionals
		}
		ifTerms = ifTerms[:0]
		for _, fn := range p.members {
			ifTerms = append(ifTerms, ilp.T(1, enc.Flow.Vars[fn]))
		}
		terms = enc.cellTerms(terms[:0], p.mask, 0)
		if len(terms) == 0 {
			// No cell can cover the pattern: such nodes cannot exist
			// at all.
			for _, t := range ifTerms {
				sys.AddConst(t.Var, 0)
			}
			continue
		}
		sys.AddCond(ifTerms, terms)
	}
	// Hall conditions per keyed region (a refinement the paper's
	// proof sketch glosses over, and without which its own school
	// example is not refuted): members of a keyed region take
	// pairwise distinct values, and a member with pattern P can only
	// use values of cells θ ⊇ P. A perfect matching into the value
	// pool therefore requires, for every family F of member patterns,
	// Σ_{P∈F} #members(P) ≤ Σ_{θ ⊇ some P∈F} z_θ.
	var pats []patternGroup
	var fam []patternGroup
	for i, r := range enc.Regions {
		if !r.Keyed {
			continue
		}
		pats = pats[:0]
		for _, p := range patterns {
			if p.mask&(1<<uint(i)) != 0 {
				pats = append(pats, p)
			}
		}
		if len(pats) > hallFamilyCap {
			// Too many patterns for full Hall enumeration: keep the
			// singleton and whole-family conditions.
			for b := range pats {
				terms = enc.hallRow(terms[:0], pats[b:b+1])
				sys.AddLE(terms, 0)
			}
			terms = enc.hallRow(terms[:0], pats)
			sys.AddLE(terms, 0)
			continue
		}
		for sub := uint(1); sub < 1<<uint(len(pats)); sub++ {
			fam = fam[:0]
			for b := range pats {
				if sub&(1<<uint(b)) != 0 {
					fam = append(fam, pats[b])
				}
			}
			terms = enc.hallRow(terms[:0], fam)
			sys.AddLE(terms, 0)
		}
	}
	sys.MarkBase()
	return enc, nil
}

// hallFamilyCap bounds the 2^m Hall-family enumeration per keyed
// region.
const hallFamilyCap = 10

// cellTerms appends z_θ for every cell θ ⊇ in with θ ∩ out = ∅, in
// ascending mask order.
func (e *RegularEncoding) cellTerms(terms []ilp.Term, in, out uint) []ilp.Term {
	for m := uint(1); m < uint(len(e.CellVars)); m++ {
		if m&in == in && m&out == 0 {
			terms = append(terms, ilp.T(1, e.CellVars[m]))
		}
	}
	return terms
}

// hallRow appends the Hall inequality of one pattern family,
// Σ members - Σ covering cells ≤ 0.
func (e *RegularEncoding) hallRow(terms []ilp.Term, fam []patternGroup) []ilp.Term {
	for _, p := range fam {
		for _, fn := range p.members {
			terms = append(terms, ilp.T(1, e.Flow.Vars[fn]))
		}
	}
	for m := uint(1); m < uint(len(e.CellVars)); m++ {
		for _, p := range fam {
			if m&p.mask == p.mask {
				terms = append(terms, ilp.T(-1, e.CellVars[m]))
				break
			}
		}
	}
	return terms
}

// subsumes reports whether every reachable element flow node in region
// i is also in region j, given each element node's accepting regions.
func subsumes(accepts []uint, i, j int) bool {
	for _, a := range accepts {
		if a&(1<<uint(i)) != 0 && a&(1<<uint(j)) == 0 {
			return false
		}
	}
	return true
}

// patternGroup is the element flow nodes sharing one region membership
// pattern.
type patternGroup struct {
	mask    uint
	members []int
}

// patterns groups the element flow nodes by their per-attribute region
// membership pattern (only nodes with at least one region membership
// appear), in ascending pattern order; members keep flow-node order.
// Patterns are computed per (type, attr): regions of different
// attributes on the same type never share a pattern.
func (e *RegularEncoding) patterns(accepts []uint) []patternGroup {
	type hit struct {
		mask uint
		fn   int
	}
	var hits []hit
	for x, fn := range e.Flow.ElementNodes() {
		typ := e.Flow.N.Name(e.Flow.Nodes[fn].Sym)
		for _, attr := range e.D.Attrs(typ) {
			var pattern uint
			for i, r := range e.Regions {
				if r.Type == typ && r.Attr == attr {
					pattern |= accepts[x] & (1 << uint(i))
				}
			}
			if pattern != 0 {
				hits = append(hits, hit{pattern, fn})
			}
		}
	}
	slices.SortStableFunc(hits, func(a, b hit) int { return cmp.Compare(a.mask, b.mask) })
	members := make([]int, len(hits))
	var out []patternGroup
	for x, h := range hits {
		members[x] = h.fn
		if len(out) == 0 || out[len(out)-1].mask != h.mask {
			out = append(out, patternGroup{mask: h.mask, members: members[x : x+1 : x+1]})
		} else {
			g := &out[len(out)-1]
			g.members = members[x-len(g.members) : x+1 : x+1]
		}
	}
	return out
}

// RegionIndex returns the index of the region addressing a target, or
// -1 when the target was not part of the encoding.
func (e *RegularEncoding) RegionIndex(t constraint.Target) int {
	id := regionExpr(e.D, t).String() + "#" + t.Attrs[0]
	for i, r := range e.Regions {
		if r.id == id {
			return i
		}
	}
	return -1
}

// regionExpr returns the full root-to-node path language of a target:
// β.τ for path targets, the root symbol alone for the root type, and
// root._*.τ (= ext(τ)) for other type-based targets.
func regionExpr(d *dtd.DTD, t constraint.Target) *pathre.Expr {
	if t.Path != nil {
		return pathre.Concat(t.Path, pathre.Symbol(t.Type))
	}
	if t.Type == d.Root {
		return pathre.Symbol(d.Root)
	}
	return pathre.Concat(pathre.Symbol(d.Root), pathre.AnyPath(), pathre.Symbol(t.Type))
}

// PathDFA returns the automaton of the region whose path language is
// a path target's β.τ, or nil when no region has it. The automaton
// reads the DTD's element types, so it serves constraint.CheckWith on
// any tree whose labels the DTD declares. Regions are found by their
// rendered path, so a target parsed separately from the one that named
// its region finds it too.
func (e *RegularEncoding) PathDFA(tgt constraint.Target) *pathre.DFA {
	path := regionExpr(e.D, tgt).String()
	for _, r := range e.Regions {
		if r.path == path {
			return r.DFA
		}
	}
	return nil
}

// Witness builds an XML tree from a satisfying assignment. The shape
// comes from Realize; values are assigned per Lemma 4 from the z_θ
// cells with a greedy strategy that is complete in the common cases
// (distinct keyed regions per attribute). The tree is checked against
// Σ on the encoding's region automata, and a violation is returned as
// an error: callers treat failure as "witness unavailable", which does
// not affect the decision itself, and need only check conformance to
// the DTD.
func (e *RegularEncoding) Witness(vals []int64, maxNodes int) (*xmltree.Tree, error) {
	tree, origin, err := e.Flow.Realize(vals, maxNodes)
	if err != nil {
		return nil, err
	}
	if err := e.assignValues(tree, origin, vals); err != nil {
		return nil, err
	}
	if vs := constraint.CheckWith(tree, e.Set, e); len(vs) > 0 {
		return nil, fmt.Errorf("cardinality: greedy value assignment failed verification: %s", vs[0])
	}
	return tree, nil
}

// cellValue names the j-th value of cell θ (cells are disjoint pools,
// the s_θ of Lemma 4).
func cellValue(mask uint, j int64) string {
	b := make([]byte, 0, 24)
	b = strconv.AppendUint(append(b, 'c'), uint64(mask), 10)
	return string(strconv.AppendInt(append(b, '_'), j, 10))
}

// valueSlot is one (element, attribute) position needing a value from
// the cell pools.
type valueSlot struct {
	node    *xmltree.Node
	attr    string
	pattern uint // region membership
	keyed   uint // keyed subset of pattern
}

// assignValues distributes the cell values of the solution over the
// attribute slots: every slot takes a value from a cell θ ⊇ pattern,
// and slots sharing a keyed region take distinct values. The search is
// an exact backtracking over slots (most-constrained first) with a
// step budget; Lemma 4 guarantees an assignment exists for solutions
// that correspond to trees.
func (e *RegularEncoding) assignValues(tree *xmltree.Tree, origin map[*xmltree.Node]int, vals []int64) error {
	type value struct {
		name string
		mask uint
	}
	var pool []value
	for m := uint(1); m < uint(len(e.CellVars)); m++ {
		for j := int64(0); j < vals[e.CellVars[m]]; j++ {
			pool = append(pool, value{cellValue(m, j), m})
		}
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].name < pool[j].name })

	var slots []valueSlot
	tree.Walk(func(n *xmltree.Node) {
		fn, ok := origin[n]
		if !ok {
			return
		}
		state := e.Flow.Nodes[fn].State
		for _, attr := range e.D.Attrs(n.Label) {
			var pattern, keyed uint
			for i, r := range e.Regions {
				if r.Type == n.Label && r.Attr == attr && e.Product.AcceptsComponent(state, i) {
					pattern |= 1 << uint(i)
					if r.Keyed {
						keyed |= 1 << uint(i)
					}
				}
			}
			if pattern == 0 {
				n.SetAttr(attr, "u")
				continue
			}
			slots = append(slots, valueSlot{n, attr, pattern, keyed})
		}
	})
	// Most-constrained slots first: fewest compatible pool values.
	compat := func(s valueSlot) int {
		c := 0
		for _, v := range pool {
			if v.mask&s.pattern == s.pattern {
				c++
			}
		}
		return c
	}
	sort.SliceStable(slots, func(i, j int) bool { return compat(slots[i]) < compat(slots[j]) })

	// usedBy[i] is the set of pool indices taken by members of keyed
	// region i.
	usedBy := make([]map[int]bool, len(e.Regions))
	for i := range usedBy {
		usedBy[i] = map[int]bool{}
	}
	assign := make([]int, len(slots))
	budget := 200000
	var rec func(k int) bool
	rec = func(k int) bool {
		if budget--; budget < 0 {
			return false
		}
		if k == len(slots) {
			return true
		}
		s := slots[k]
		for pi, v := range pool {
			if v.mask&s.pattern != s.pattern {
				continue
			}
			clash := false
			for i := 0; i < len(e.Regions) && !clash; i++ {
				if s.keyed&(1<<uint(i)) != 0 && usedBy[i][pi] {
					clash = true
				}
			}
			if clash {
				continue
			}
			assign[k] = pi
			for i := range e.Regions {
				if s.keyed&(1<<uint(i)) != 0 {
					usedBy[i][pi] = true
				}
			}
			if rec(k + 1) {
				return true
			}
			for i := range e.Regions {
				if s.keyed&(1<<uint(i)) != 0 {
					delete(usedBy[i], pi)
				}
			}
		}
		return false
	}
	if !rec(0) {
		return fmt.Errorf("cardinality: no per-region-injective value assignment found for %d slots", len(slots))
	}
	for k, s := range slots {
		s.node.SetAttr(s.attr, pool[assign[k]].name)
	}
	return nil
}

func popcount(m uint) int {
	c := 0
	for ; m != 0; m &= m - 1 {
		c++
	}
	return c
}

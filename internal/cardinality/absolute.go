package cardinality

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/ilp"
	"repro/internal/xmltree"
)

// AbsoluteEncoding is Ψ(D, Σ) for type-based absolute constraints: the
// stateless flow Ψ_D plus the cardinality constraints C_Σ of Lemma 1
// (and of Lemma 9 / [14] in the unary case).
type AbsoluteEncoding struct {
	Flow *Flow
	D    *dtd.DTD
	Set  *constraint.Set
	// Exact reports whether the encoding decides consistency exactly.
	// It is false when Σ contains multi-attribute inclusions, or
	// multi-attribute keys that are neither primary nor disjoint — in
	// those cases a solution does not guarantee a tree (the encoding
	// remains refutation-sound: no solution still means inconsistent).
	Exact bool
	// exts are the |ext(τ.l)| variables in creation order; extHead[u]
	// starts element type u's chain through them (-1 when empty).
	exts    []extVar
	extHead []int32
}

// extVar is the |ext(τ.l)| variable of attribute attr of one element
// type; next chains the type's other ext variables.
type extVar struct {
	attr string
	v    ilp.Var
	next int32
}

// EncodeAbsolute compiles a type-based absolute constraint set over
// the DTD. It returns an error for constraint sets outside the
// type-based absolute dialects (paths or contexts present).
func EncodeAbsolute(d *dtd.DTD, set *constraint.Set) (*AbsoluteEncoding, error) {
	f := DTDForm{D: d}
	return f.EncodeAbsolute(set)
}

// EncodeAbsolute is the package-level EncodeAbsolute over the form's
// DTD, taking the narrowing from the form.
func (f *DTDForm) EncodeAbsolute(set *constraint.Set) (*AbsoluteEncoding, error) {
	d := f.D
	prof := constraint.Classify(set)
	if prof.Regular || prof.Relative {
		return nil, fmt.Errorf("cardinality: EncodeAbsolute requires type-based absolute constraints, got %s", prof.ClassName())
	}
	sys := ilp.NewSystem()
	flow := BuildFlow(sys, f.Narrowed(), nil)
	enc := &AbsoluteEncoding{
		Flow:  flow,
		D:     d,
		Set:   set,
		Exact: true,
	}
	if prof.MaxIncArity > 1 {
		enc.Exact = false
	}
	if prof.MaxKeyArity > 1 && !prof.Primary && !prof.DisjointKeys {
		enc.Exact = false
	}

	// ext(τ.l) variables, created at first mention with the generic
	// bounds: 0 ≤ ext(τ.l) ≤ ext(τ), and ext(τ) > 0 → ext(τ.l) > 0
	// (every τ element carries an l attribute). Stateless flows number
	// their element nodes by symbol id, so the count variable of type u
	// is Vars[node(u, 0)].
	enc.extHead = make([]int32, len(d.Names))
	for u := range enc.extHead {
		enc.extHead[u] = -1
	}
	typeID := func(typ string) (int, error) {
		u, ok := flow.N.ID(typ)
		if !ok {
			return 0, fmt.Errorf("cardinality: constraint type %q is not an element type of the DTD", typ)
		}
		return u, nil
	}
	extOf := func(u int, attr string) ilp.Var {
		if x, ok := enc.extIndex(u, attr); ok {
			return enc.exts[x].v
		}
		v := sys.NewVarFunc(func(b []byte) []byte {
			b = append(append(append(append(b, "ext("...), d.Names[u]...), '.'), attr...)
			return append(b, ')')
		})
		enc.exts = append(enc.exts, extVar{attr: attr, v: v, next: enc.extHead[u]})
		enc.extHead[u] = int32(len(enc.exts) - 1)
		typeVar := flow.Vars[flow.node(u, 0)]
		sys.AddVarLE(v, typeVar)
		sys.AddCondVar(typeVar, v)
		return v
	}

	// C_Σ.
	var exts []ilp.Var
	for _, k := range set.Keys {
		u, err := typeID(k.Target.Type)
		if err != nil {
			return nil, err
		}
		exts = exts[:0]
		for _, l := range k.Target.Attrs {
			exts = append(exts, extOf(u, l))
		}
		// |ext(τ)| ≤ Π |ext(τ.l_i)| (for unary keys this plus the
		// generic upper bound forces equality).
		sys.AddProductUpper(flow.Vars[flow.node(u, 0)], exts)
	}
	for _, c := range set.Incls {
		from, err := typeID(c.From.Type)
		if err != nil {
			return nil, err
		}
		to, err := typeID(c.To.Type)
		if err != nil {
			return nil, err
		}
		// Coordinate-wise |ext(τ1.x_i)| ≤ |ext(τ2.y_i)|; exact for
		// unary inclusions (Lemma 1), refutation-sound otherwise.
		for a := range c.From.Attrs {
			x := extOf(from, c.From.Attrs[a])
			sys.AddVarLE(x, extOf(to, c.To.Attrs[a]))
		}
	}
	sys.MarkBase()
	return enc, nil
}

// extIndex returns the index in exts of type u's attribute l.
func (e *AbsoluteEncoding) extIndex(u int, attr string) (int, bool) {
	for x := e.extHead[u]; x >= 0; x = e.exts[x].next {
		if e.exts[x].attr == attr {
			return int(x), true
		}
	}
	return -1, false
}

// ExtVar returns the |ext(τ.l)| variable of an attribute Σ mentions.
func (e *AbsoluteEncoding) ExtVar(typ, attr string) (ilp.Var, bool) {
	u, ok := e.Flow.N.ID(typ)
	if !ok {
		return 0, false
	}
	x, ok := e.extIndex(u, attr)
	if !ok {
		return 0, false
	}
	return e.exts[x].v, true
}

// keyGroups returns the attribute groups of type typ used by value
// assignment: one group per distinct key on typ, in Σ order.
func (e *AbsoluteEncoding) keyGroups(typ string) [][]string {
	var groups [][]string
	for _, k := range e.Set.Keys {
		if k.Target.Type == typ && !slices.ContainsFunc(groups, func(g []string) bool { return slices.Equal(g, k.Target.Attrs) }) {
			groups = append(groups, k.Target.Attrs)
		}
	}
	return groups
}

// Witness builds an XML tree from a satisfying assignment: Realize
// gives the shape (Lemma 6), and the prefix-pool value assignment of
// Lemma 1 populates the attributes. The caller should dynamically
// verify the result when Exact is false.
func (e *AbsoluteEncoding) Witness(vals []int64, maxNodes int) (*xmltree.Tree, error) {
	tree, err := e.Flow.realize(vals, maxNodes, nil)
	if err != nil {
		return nil, err
	}
	if err := e.assignValues(tree, vals); err != nil {
		return nil, err
	}
	return tree, nil
}

// poolValue names the i-th value of the global pool (Lemma 1's a_i);
// every ext(τ.l) is realized as the prefix {a_0, …}.
func poolValue(i int64) string { return "a" + strconv.FormatInt(i, 10) }

// assignValues implements the construction of Lemma 1: each mentioned
// ext(τ.l) becomes a prefix of a global value pool; keyed attribute
// groups receive distinct tuples with exact per-coordinate coverage.
func (e *AbsoluteEncoding) assignValues(tree *xmltree.Tree, vals []int64) error {
	size := func(u int, attr string) int64 {
		if x, ok := e.extIndex(u, attr); ok {
			return vals[e.exts[x].v]
		}
		return 1 // unconstrained attributes share one value
	}
	exts := e.extents(tree)
	for u, typ := range e.D.Names {
		nodes := exts[u]
		if len(nodes) == 0 {
			continue
		}
		attrs := e.D.Attrs(typ)
		if len(attrs) == 0 {
			continue
		}
		groups := e.keyGroups(typ)
		for _, g := range groups {
			sizes := make([]int64, len(g))
			for i, l := range g {
				sizes[i] = size(u, l)
			}
			tuples, err := distinctTuples(int64(len(nodes)), sizes)
			if err != nil {
				return fmt.Errorf("cardinality: key group %v on %s: %w", g, typ, err)
			}
			for j, n := range nodes {
				for i, l := range g {
					n.SetAttr(l, poolValue(tuples[j][i]))
				}
			}
		}
		for _, l := range attrs {
			if slices.ContainsFunc(groups, func(g []string) bool { return slices.Contains(g, l) }) {
				continue
			}
			v := size(u, l)
			for j, n := range nodes {
				n.SetAttr(l, poolValue(int64(j)%v))
			}
		}
	}
	return nil
}

// extents returns ext(τ) for every element type τ, indexed like
// D.Names, from one pass over the tree.
func (e *AbsoluteEncoding) extents(tree *xmltree.Tree) [][]*xmltree.Node {
	type typed struct {
		n *xmltree.Node
		u int
	}
	order := make([]typed, 0, tree.Size())
	count := make([]int, len(e.D.Names))
	tree.Walk(func(n *xmltree.Node) {
		if u, ok := e.Flow.N.ID(n.Label); ok {
			order = append(order, typed{n, u})
			count[u]++
		}
	})
	exts := make([][]*xmltree.Node, len(count))
	slab := make([]*xmltree.Node, len(order))
	for u, c := range count {
		exts[u], slab = slab[:0:c], slab[c:]
	}
	for _, x := range order {
		exts[x.u] = append(exts[x.u], x.n)
	}
	return exts
}

// distinctTuples returns n distinct tuples over the box Π [0, sizes_i)
// such that coordinate i covers exactly {0, …, sizes_i - 1}. Requires
// max(sizes) ≤ n ≤ Π sizes, which C_Σ guarantees for keyed groups.
func distinctTuples(n int64, sizes []int64) ([][]int64, error) {
	var maxSize, prod int64 = 0, 1
	for _, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("coordinate size %d", s)
		}
		if s > maxSize {
			maxSize = s
		}
		prod = mulSatLocal(prod, s)
	}
	if n < maxSize || n > prod {
		return nil, fmt.Errorf("need max %d ≤ n=%d ≤ product %d", maxSize, n, prod)
	}
	out := make([][]int64, 0, n)
	coords := make([]int64, n*int64(len(sizes)))
	tuple := func() []int64 {
		t := coords[:len(sizes):len(sizes)]
		coords = coords[len(sizes):]
		return t
	}
	// Diagonal phase: j-th tuple is (j mod s_1, …, j mod s_k); these
	// are distinct for j < max(sizes) (they differ in a maximal
	// coordinate) and cover every coordinate's full range.
	for j := int64(0); j < maxSize; j++ {
		t := tuple()
		for i, s := range sizes {
			t[i] = j % s
		}
		out = append(out, t)
	}
	if n == maxSize {
		return out, nil
	}
	used := map[string]bool{}
	keyOf := func(t []int64) string {
		var b []byte
		for _, v := range t {
			b = append(strconv.AppendInt(b, v, 10), ',')
		}
		return string(b)
	}
	for _, t := range out {
		used[keyOf(t)] = true
	}
	// Fill phase: walk the box in mixed-radix order, skipping used
	// tuples, until n tuples exist.
	cur := make([]int64, len(sizes))
	for int64(len(out)) < n {
		if !used[keyOf(cur)] {
			t := tuple()
			copy(t, cur)
			out = append(out, t)
			used[keyOf(t)] = true
			if int64(len(out)) == n {
				break
			}
		}
		// Increment mixed-radix counter.
		i := 0
		for ; i < len(sizes); i++ {
			cur[i]++
			if cur[i] < sizes[i] {
				break
			}
			cur[i] = 0
		}
		if i == len(sizes) {
			return nil, fmt.Errorf("box exhausted before %d tuples", n)
		}
	}
	return out, nil
}

func mulSatLocal(a, b int64) int64 {
	const lim = int64(1) << 40
	if a == 0 || b == 0 {
		return 0
	}
	if a > lim/b {
		return lim
	}
	return a * b
}

package cardinality_test

// This file keeps the map-based compilers the dense ones replaced —
// dtd.Narrow, BuildFlow, EncodeAbsolute and EncodeRegular as they were
// first written — as a differential oracle. The production compilers
// must build the same variables in the same creation order and the
// same constraint rows, so every digest and certificate stays put.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/cardinality"
	"repro/internal/constraint"
	"repro/internal/contentmodel"
	"repro/internal/dtd"
	"repro/internal/experiments"
	"repro/internal/ilp"
	"repro/internal/pathre"
	"repro/internal/scope"
)

type refRule struct {
	kind dtd.RuleKind
	a, b string
}

type refNarrowed struct {
	root    string
	symbols []string
	rules   map[string]refRule
	owner   map[string]string
}

func refNarrow(d *dtd.DTD) *refNarrowed {
	n := &refNarrowed{root: d.Root, rules: map[string]refRule{}, owner: map[string]string{}}
	for _, name := range d.Names {
		n.symbols = append(n.symbols, name)
		n.owner[name] = name
	}
	for _, name := range d.Names {
		counter := 0
		fresh := func() string {
			counter++
			return fmt.Sprintf("%s#%d", name, counter)
		}
		n.rules[name] = n.narrow(name, d.Elements[name].Content, fresh)
	}
	return n
}

func (n *refNarrowed) narrow(owner string, e *contentmodel.Expr, fresh func() string) refRule {
	define := func(sub *contentmodel.Expr) string {
		name := fresh()
		n.symbols = append(n.symbols, name)
		n.owner[name] = owner
		n.rules[name] = n.narrow(owner, sub, fresh)
		return name
	}
	switch e.Kind {
	case contentmodel.Empty:
		return refRule{kind: dtd.RuleEmpty}
	case contentmodel.Text:
		return refRule{kind: dtd.RuleText}
	case contentmodel.Name:
		return refRule{kind: dtd.RuleRef, a: e.Ref}
	case contentmodel.Star:
		return refRule{kind: dtd.RuleStar, a: define(e.Kids[0])}
	case contentmodel.Seq, contentmodel.Choice:
		kind := dtd.RuleSeq
		if e.Kind == contentmodel.Choice {
			kind = dtd.RuleChoice
		}
		a := define(e.Kids[0])
		var b string
		if len(e.Kids) == 2 {
			b = define(e.Kids[1])
		} else {
			b = define(&contentmodel.Expr{Kind: e.Kind, Kids: e.Kids[1:]})
		}
		return refRule{kind: kind, a: a, b: b}
	}
	panic("unknown content model kind")
}

func (n *refNarrowed) isOriginal(sym string) bool { return n.owner[sym] == sym }

type refNode struct {
	sym   string
	state int
}

type refFlow struct {
	sys      *ilp.System
	n        *refNarrowed
	product  *pathre.Product
	nodes    []refNode
	vars     []ilp.Var
	root     int
	index    map[refNode]int
	refsInto map[int][]int
}

func (f *refFlow) lookup(sym string, state int) int {
	if i, ok := f.index[refNode{sym, state}]; ok {
		return i
	}
	return -1
}

func (f *refFlow) operand(i int, sym string) int { return f.index[refNode{sym, f.nodes[i].state}] }

func refBuildFlow(sys *ilp.System, n *refNarrowed, product *pathre.Product) *refFlow {
	f := &refFlow{sys: sys, n: n, product: product, index: map[refNode]int{}, refsInto: map[int][]int{}}
	intern := func(nd refNode) int {
		if i, ok := f.index[nd]; ok {
			return i
		}
		i := len(f.nodes)
		f.nodes = append(f.nodes, nd)
		f.index[nd] = i
		name := nd.sym
		if product != nil {
			name = fmt.Sprintf("%s@%d", nd.sym, nd.state)
		}
		f.vars = append(f.vars, sys.Var("x("+name+")"))
		return i
	}
	rootState := 0
	if product != nil {
		rootState = product.Step(0, n.root)
	}
	f.root = intern(refNode{n.root, rootState})
	for q := 0; q < len(f.nodes); q++ {
		nd := f.nodes[q]
		r := n.rules[nd.sym]
		switch r.kind {
		case dtd.RuleSeq, dtd.RuleChoice:
			intern(refNode{r.a, nd.state})
			intern(refNode{r.b, nd.state})
		case dtd.RuleStar:
			intern(refNode{r.a, nd.state})
		case dtd.RuleRef:
			state := nd.state
			if product != nil {
				state = product.Step(state, r.a)
			}
			t := intern(refNode{r.a, state})
			f.refsInto[t] = append(f.refsInto[t], q)
		}
	}
	sys.AddConst(f.vars[f.root], 1)
	for i, nd := range f.nodes {
		r := n.rules[nd.sym]
		switch r.kind {
		case dtd.RuleSeq:
			sys.AddVarEQ(f.vars[f.operand(i, r.a)], f.vars[i])
			sys.AddVarEQ(f.vars[f.operand(i, r.b)], f.vars[i])
		case dtd.RuleChoice:
			sys.AddSumEQ(f.vars[i], []ilp.Var{f.vars[f.operand(i, r.a)], f.vars[f.operand(i, r.b)]})
		case dtd.RuleStar:
			sys.AddCondVar(f.vars[f.operand(i, r.a)], f.vars[i])
		}
	}
	for i := range f.nodes {
		if !n.isOriginal(f.nodes[i].sym) || i == f.root {
			continue
		}
		var feeders []ilp.Var
		for _, src := range f.refsInto[i] {
			feeders = append(feeders, f.vars[src])
		}
		sys.AddSumEQ(f.vars[i], feeders)
	}
	return f
}

func (f *refFlow) elementNodes() []int {
	var out []int
	for i := range f.nodes {
		if f.n.isOriginal(f.nodes[i].sym) {
			out = append(out, i)
		}
	}
	return out
}

// refEncodeAbsolute is the original EncodeAbsolute, reduced to the
// system it builds.
func refEncodeAbsolute(d *dtd.DTD, set *constraint.Set) (*ilp.System, error) {
	prof := constraint.Classify(set)
	if prof.Regular || prof.Relative {
		return nil, fmt.Errorf("not type-based absolute")
	}
	sys := ilp.NewSystem()
	flow := refBuildFlow(sys, refNarrow(d), nil)
	extVars := map[string]ilp.Var{}
	typeVar := func(typ string) ilp.Var { return flow.vars[flow.lookup(typ, 0)] }
	extVar := func(typ, attr string) ilp.Var {
		key := typ + "." + attr
		if v, ok := extVars[key]; ok {
			return v
		}
		v := sys.Var("ext(" + key + ")")
		extVars[key] = v
		sys.AddVarLE(v, typeVar(typ))
		sys.AddCondVar(typeVar(typ), v)
		return v
	}
	for _, k := range set.Keys {
		exts := make([]ilp.Var, len(k.Target.Attrs))
		for i, l := range k.Target.Attrs {
			exts[i] = extVar(k.Target.Type, l)
		}
		sys.AddProductUpper(typeVar(k.Target.Type), exts)
	}
	for _, c := range set.Incls {
		for i := range c.From.Attrs {
			sys.AddVarLE(extVar(c.From.Type, c.From.Attrs[i]), extVar(c.To.Type, c.To.Attrs[i]))
		}
	}
	return sys, nil
}

type refRegion struct {
	typ, attr string
	expr      *pathre.Expr
	keyed     bool
	nodesVar  ilp.Var
	valuesVar ilp.Var
}

func (r *refRegion) id() string { return r.expr.String() + "#" + r.attr }

func refRegionExpr(d *dtd.DTD, t constraint.Target) *pathre.Expr {
	if t.Path != nil {
		return pathre.Concat(t.Path, pathre.Symbol(t.Type))
	}
	if t.Type == d.Root {
		return pathre.Symbol(d.Root)
	}
	return pathre.Concat(pathre.Symbol(d.Root), pathre.AnyPath(), pathre.Symbol(t.Type))
}

// refEncodeRegular is the original EncodeRegularWithTargets, reduced
// to the system it builds. It emits the pattern-positivity rows in map
// order, so only the sorted rows (and the digest) are comparable.
func refEncodeRegular(d *dtd.DTD, set *constraint.Set, extra []constraint.Target) (*ilp.System, error) {
	prof := constraint.Classify(set)
	if prof.Relative || prof.MaxKeyArity > 1 || prof.MaxIncArity > 1 {
		return nil, fmt.Errorf("not unary absolute")
	}
	var regions []*refRegion
	regionIndex := map[string]int{}
	addRegion := func(t constraint.Target) int {
		r := &refRegion{typ: t.Type, attr: t.Attrs[0], expr: refRegionExpr(d, t)}
		if i, ok := regionIndex[r.id()]; ok {
			return i
		}
		regionIndex[r.id()] = len(regions)
		regions = append(regions, r)
		return len(regions) - 1
	}
	type incl struct{ from, to int }
	var incls []incl
	var keyed []int
	for _, k := range set.Keys {
		keyed = append(keyed, addRegion(k.Target))
	}
	for _, c := range set.Incls {
		incls = append(incls, incl{addRegion(c.From), addRegion(c.To)})
	}
	for _, t := range extra {
		addRegion(t)
	}
	for _, i := range keyed {
		regions[i].keyed = true
	}
	k := len(regions)
	if k > cardinality.MaxRegions {
		return nil, fmt.Errorf("region cap")
	}
	alphabet := append([]string(nil), d.Names...)
	sort.Strings(alphabet)
	dfas := make([]*pathre.DFA, k)
	for i, r := range regions {
		dfas[i] = pathre.CompileDFA(r.expr, alphabet).Minimize()
	}
	if k == 0 {
		dfas = []*pathre.DFA{pathre.CompileDFA(pathre.AnyPath(), alphabet)}
	}
	product := pathre.NewProduct(dfas)
	sys := ilp.NewSystem()
	flow := refBuildFlow(sys, refNarrow(d), product)
	for i, r := range regions {
		r.nodesVar = sys.Var("nodes(" + r.expr.String() + ")")
		var members []ilp.Var
		for _, fn := range flow.elementNodes() {
			if product.AcceptsComponent(flow.nodes[fn].state, i) {
				members = append(members, flow.vars[fn])
			}
		}
		sys.AddSumEQ(r.nodesVar, members)
		r.valuesVar = sys.Var("values(" + r.id() + ")")
		sys.AddVarLE(r.valuesVar, r.nodesVar)
		sys.AddCondVar(r.nodesVar, r.valuesVar)
		if r.keyed {
			sys.AddGE([]ilp.Term{ilp.T(1, r.valuesVar), ilp.T(-1, r.nodesVar)}, 0)
		}
	}
	if k == 0 {
		return sys, nil
	}
	cells := map[uint]ilp.Var{}
	for m := uint(1); m < 1<<uint(k); m++ {
		cells[m] = sys.Var(fmt.Sprintf("z(%b)", m))
	}
	for i, r := range regions {
		var terms []ilp.Term
		for m, v := range cells {
			if m&(1<<uint(i)) != 0 {
				terms = append(terms, ilp.T(1, v))
			}
		}
		terms = append(terms, ilp.T(-1, r.valuesVar))
		sys.AddEQ(terms, 0)
	}
	zeroDiff := func(i, j int) {
		var terms []ilp.Term
		for m, v := range cells {
			if m&(1<<uint(i)) != 0 && m&(1<<uint(j)) == 0 {
				terms = append(terms, ilp.T(1, v))
			}
		}
		if len(terms) > 0 {
			sys.AddEQ(terms, 0)
		}
	}
	for _, c := range incls {
		zeroDiff(c.from, c.to)
	}
	subsumes := func(i, j int) bool {
		for _, fn := range flow.elementNodes() {
			s := flow.nodes[fn].state
			if product.AcceptsComponent(s, i) && !product.AcceptsComponent(s, j) {
				return false
			}
		}
		return true
	}
	for i, ri := range regions {
		for j, rj := range regions {
			if i != j && ri.attr == rj.attr && subsumes(i, j) {
				zeroDiff(i, j)
			}
		}
	}
	patterns := map[uint][]int{}
	for _, fn := range flow.elementNodes() {
		nd := flow.nodes[fn]
		for _, attr := range d.Attrs(nd.sym) {
			var pattern uint
			for i, r := range regions {
				if r.typ == nd.sym && r.attr == attr && product.AcceptsComponent(nd.state, i) {
					pattern |= 1 << uint(i)
				}
			}
			if pattern != 0 {
				patterns[pattern] = append(patterns[pattern], fn)
			}
		}
	}
	for pattern, members := range patterns {
		if popcount(pattern) < 2 {
			continue
		}
		var ifTerms, thenTerms []ilp.Term
		for _, fn := range members {
			ifTerms = append(ifTerms, ilp.T(1, flow.vars[fn]))
		}
		for m, v := range cells {
			if m&pattern == pattern {
				thenTerms = append(thenTerms, ilp.T(1, v))
			}
		}
		if len(thenTerms) == 0 {
			for _, t := range ifTerms {
				sys.AddConst(t.Var, 0)
			}
			continue
		}
		sys.AddCond(ifTerms, thenTerms)
	}
	addHall := func(fams [][]uint) {
		for _, fam := range fams {
			var lhs []ilp.Term
			for _, p := range fam {
				for _, fn := range patterns[p] {
					lhs = append(lhs, ilp.T(1, flow.vars[fn]))
				}
			}
			var rhs []ilp.Term
			for m, v := range cells {
				for _, p := range fam {
					if m&p == p {
						rhs = append(rhs, ilp.T(-1, v))
						break
					}
				}
			}
			sys.AddLE(append(lhs, rhs...), 0)
		}
	}
	const hallFamilyCap = 10
	for i, r := range regions {
		if !r.keyed {
			continue
		}
		var pats []uint
		for pattern := range patterns {
			if pattern&(1<<uint(i)) != 0 {
				pats = append(pats, pattern)
			}
		}
		sort.Slice(pats, func(a, b int) bool { return pats[a] < pats[b] })
		var fams [][]uint
		if len(pats) > hallFamilyCap {
			for _, p := range pats {
				fams = append(fams, []uint{p})
			}
			fams = append(fams, pats)
		} else {
			for sub := uint(1); sub < 1<<uint(len(pats)); sub++ {
				var fam []uint
				for b := 0; b < len(pats); b++ {
					if sub&(1<<uint(b)) != 0 {
						fam = append(fam, pats[b])
					}
				}
				fams = append(fams, fam)
			}
		}
		addHall(fams)
	}
	return sys, nil
}

func popcount(m uint) int {
	c := 0
	for ; m != 0; m &= m - 1 {
		c++
	}
	return c
}

// sameSystem reports how got differs from want: variable names in
// creation order, the multiset of rendered rows, and the digest.
func sameSystem(got, want *ilp.System) error {
	if got.NumVars() != want.NumVars() {
		return fmt.Errorf("%d variables, reference has %d", got.NumVars(), want.NumVars())
	}
	for v := 0; v < got.NumVars(); v++ {
		if g, w := got.Name(ilp.Var(v)), want.Name(ilp.Var(v)); g != w {
			return fmt.Errorf("variable %d is %q, reference has %q", v, g, w)
		}
	}
	sortedRows := func(s *ilp.System) string {
		rows := strings.Split(s.String(), "\n")
		sort.Strings(rows)
		return strings.Join(rows, "\n")
	}
	if g, w := sortedRows(got), sortedRows(want); g != w {
		return fmt.Errorf("rows differ:\n%s\nreference:\n%s", g, w)
	}
	if g, w := got.Digest(), want.Digest(); g != w {
		return fmt.Errorf("digest %s, reference %s", g, w)
	}
	return nil
}

// compareEncoders encodes (d, set) with both the production and the
// reference compilers, through whichever routes accept the set, and
// reports the first difference. It returns how many encodings were
// compared.
func compareEncoders(d *dtd.DTD, set *constraint.Set, extra []constraint.Target) (int, error) {
	compared := 0
	if enc, err := cardinality.EncodeAbsolute(d, set); err == nil {
		ref, rerr := refEncodeAbsolute(d, set)
		if rerr != nil {
			return compared, fmt.Errorf("absolute: reference refused: %v", rerr)
		}
		if err := sameSystem(enc.Flow.Sys, ref); err != nil {
			return compared, fmt.Errorf("absolute: %v", err)
		}
		compared++
	} else if _, rerr := refEncodeAbsolute(d, set); rerr == nil {
		return compared, fmt.Errorf("absolute: refused (%v), reference accepted", err)
	}
	if enc, err := cardinality.EncodeRegularWithTargets(d, set, extra); err == nil {
		ref, rerr := refEncodeRegular(d, set, extra)
		if rerr != nil {
			return compared, fmt.Errorf("regular: reference refused: %v", rerr)
		}
		if err := sameSystem(enc.Flow.Sys, ref); err != nil {
			return compared, fmt.Errorf("regular: %v", err)
		}
		compared++
	} else if _, rerr := refEncodeRegular(d, set, extra); rerr == nil {
		return compared, fmt.Errorf("regular: refused (%v), reference accepted", err)
	}
	return compared, nil
}

// scopeProblems returns every (scope DTD, local set) pair of a
// hierarchical spec's root-level decomposition: the inputs the
// relative route hands EncodeAbsolute.
func scopeProblems(d *dtd.DTD, set *constraint.Set) []struct {
	d   *dtd.DTD
	set *constraint.Set
} {
	var out []struct {
		d   *dtd.DTD
		set *constraint.Set
	}
	if !constraint.Classify(set).Relative || !scope.Hierarchical(d, set) {
		return nil
	}
	contexts := scope.ContextTypes(d, set)
	taus := append([]string{d.Root}, d.Names...)
	for _, tau := range taus {
		if tau != d.Root && !contexts[tau] {
			continue
		}
		sd, _ := scope.DTD(d, contexts, tau)
		local, _ := scope.LocalSet(d, sd, set, map[string]bool{d.Root: true, tau: true}, tau)
		out = append(out, struct {
			d   *dtd.DTD
			set *constraint.Set
		}{sd, local})
	}
	return out
}

func loadSpec(t testing.TB, dtdName, keysName string) (*dtd.DTD, *constraint.Set) {
	t.Helper()
	dsrc, err := os.ReadFile(filepath.Join("..", "..", "testdata", dtdName+".dtd"))
	if err != nil {
		t.Fatal(err)
	}
	csrc, err := os.ReadFile(filepath.Join("..", "..", "testdata", keysName+".keys"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := dtd.Parse(string(dsrc))
	if err != nil {
		t.Fatal(err)
	}
	set, err := constraint.ParseSet(string(csrc))
	if err != nil {
		t.Fatal(err)
	}
	return d, set
}

// TestEncodersMatchReference runs the production and reference
// compilers side by side on the testdata specs, the Figure 3/4
// families (every scope problem of the hierarchical ones) and 1,200
// seeded random specs over recursive and non-recursive DTDs with
// type-based and regular-path targets.
func TestEncodersMatchReference(t *testing.T) {
	check := func(name string, d *dtd.DTD, set *constraint.Set, extra []constraint.Target) int {
		t.Helper()
		n, err := compareEncoders(d, set, extra)
		if err != nil {
			t.Fatalf("%s: %v\nDTD:\n%s\nΣ:\n%s", name, err, d, set)
		}
		for i, p := range scopeProblems(d, set) {
			m, err := compareEncoders(p.d, p.set, nil)
			if err != nil {
				t.Fatalf("%s scope %d: %v\nDTD:\n%s\nΣ:\n%s", name, i, err, p.d, p.set)
			}
			n += m
		}
		return n
	}
	for _, p := range [][2]string{
		{"library", "library"}, {"geography", "geography"},
		{"school", "school"}, {"school", "school-extended"},
	} {
		d, set := loadSpec(t, p[0], p[1])
		check("testdata/"+p[1], d, set, nil)
	}
	for seed := int64(1); seed <= 6; seed++ {
		for _, in := range []experiments.Instance{
			experiments.Fig3Unary(rand.New(rand.NewSource(seed)), 4),
			experiments.Fig3Regular(rand.New(rand.NewSource(seed)), 2),
			experiments.Fig3Regular(rand.New(rand.NewSource(seed)), 3),
			experiments.Fig4DLocal(rand.New(rand.NewSource(seed)), 3),
			experiments.Thm35SubsetSum(rand.New(rand.NewSource(seed)), 4, 256),
		} {
			check(fmt.Sprintf("%s/seed=%d", in.Name, seed), in.D, in.Set, nil)
		}
	}
	in := experiments.Fig3Unary(rand.New(rand.NewSource(29)), 6)
	check("cnf/n=6/seed=29", in.D, in.Set, nil)
	for _, levels := range []int{2, 3, 4, 6} {
		for _, sat := range []bool{true, false} {
			in := experiments.Fig4Hierarchical(levels, sat)
			check(in.Name, in.D, in.Set, nil)
		}
	}
	for _, kind := range []string{"sat", "unsat"} {
		in := experiments.Fig3MultiMulti(kind)
		check(in.Name, in.D, in.Set, nil)
	}
	for _, kind := range []string{"linear-sat", "linear-unsat"} {
		in := experiments.Fig4Diophantine(kind)
		check(in.Name, in.D, in.Set, nil)
	}

	rng := rand.New(rand.NewSource(17))
	const trials = 1200
	compared := 0
	for i := 0; i < trials; i++ {
		d := dtd.Random(rng, dtd.RandomOptions{
			Types: 2 + rng.Intn(5), MaxAttrs: 2, MaxExprSize: 2 + rng.Intn(6),
			AllowStar: rng.Intn(3) > 0, AllowRecursion: i%2 == 1, AllowText: rng.Intn(2) == 0,
		})
		set, extra := randomReferenceSet(rng, d)
		compared += check(fmt.Sprintf("random/%d", i), d, set, extra)
	}
	if compared < trials {
		t.Fatalf("only %d encodings compared over %d random specs", compared, trials)
	}
}

// randomReferenceSet draws a unary (occasionally binary) constraint set
// mixing type-based and regular-path targets, plus occasional extra
// tracked targets for EncodeRegularWithTargets.
func randomReferenceSet(rng *rand.Rand, d *dtd.DTD) (*constraint.Set, []constraint.Target) {
	type ta struct{ typ, attr string }
	var tas []ta
	for _, name := range d.Names {
		for _, a := range d.Attrs(name) {
			tas = append(tas, ta{name, a})
		}
	}
	set := &constraint.Set{}
	if len(tas) == 0 {
		return set, nil
	}
	regular := rng.Intn(2) == 0
	target := func() constraint.Target {
		x := tas[rng.Intn(len(tas))]
		t := constraint.Target{Type: x.typ, Attrs: []string{x.attr}}
		if !regular {
			if attrs := d.Attrs(x.typ); len(attrs) > 1 && rng.Intn(6) == 0 {
				t.Attrs = append([]string(nil), attrs...)
			}
			return t
		}
		switch rng.Intn(4) {
		case 1:
			t.Path = pathre.Concat(pathre.Symbol(d.Root), pathre.AnyPath())
		case 2:
			p := pathre.Symbol(d.Root)
			for j := rng.Intn(3); j > 0; j-- {
				p = pathre.Concat(p, pathre.Wildcard())
			}
			t.Path = p
		case 3:
			y := tas[rng.Intn(len(tas))]
			t.Path = pathre.Concat(pathre.Symbol(d.Root), pathre.AnyPath(),
				pathre.Union(pathre.Symbol(y.typ), pathre.Symbol(x.typ)), pathre.AnyPath())
		}
		return t
	}
	for i := rng.Intn(4); i > 0; i-- {
		set.AddKey(constraint.Key{Target: target()})
	}
	for i := rng.Intn(4); i > 0; i-- {
		from, to := target(), target()
		if len(from.Attrs) != len(to.Attrs) {
			to.Attrs = to.Attrs[:1]
			from.Attrs = from.Attrs[:1]
		}
		set.AddInclusion(constraint.Inclusion{From: from, To: to})
	}
	var extra []constraint.Target
	if regular && rng.Intn(3) == 0 {
		extra = append(extra, target())
	}
	return set, extra
}

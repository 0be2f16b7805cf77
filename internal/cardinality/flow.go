// Package cardinality implements the paper's compilers from XML
// specifications to integer constraint systems:
//
//   - Ψ_D, the cardinality constraints of a DTD over its narrowing D_N
//     (proof of Theorem 3.4, specialized to the stateless case for the
//     type-based classes of [14] used in Theorems 3.1 and 3.5);
//   - Ψ_D^Σ, the state-tagged variant that runs the product automaton
//     of the constraint path expressions alongside the grammar
//     (Lemmas 5 and 6);
//   - C_Σ, the constraint side: ext(τ.l) variables with the key /
//     foreign-key (in)equalities of Lemma 1, and the z_θ cell variables
//     over Boolean combinations of values_D(β.τ.l) sets of Lemma 4;
//   - witness realization: from an integer solution back to an XML
//     tree (Lemmas 1, 2, 6).
//
// The flow equations alone are exact for non-recursive DTDs. For
// recursive DTDs a nonnegative solution can hide "phantom cycles"
// (components of positive counts disconnected from the root), so the
// package also provides the support-connectivity check and violated-
// component cuts that make the encoding exact for arbitrary DTDs — the
// standard Parikh-image characterization (flow + connectedness),
// applied as a cutting-plane loop by the deciders.
package cardinality

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/dtd"
	"repro/internal/ilp"
	"repro/internal/obs"
	"repro/internal/pathre"
)

// FlowNode is one symbol of the narrowed grammar (a dtd.Narrowed
// symbol id) paired with a product automaton state (state 0 when no
// automaton is attached).
type FlowNode struct {
	Sym   int
	State int
}

// Flow is the counting graph of a (possibly state-tagged) narrowed
// DTD, with its equations installed in an ilp.System.
type Flow struct {
	// Sys receives the equations; callers add their C_Σ on top.
	Sys *ilp.System
	// N is the narrowed DTD.
	N *dtd.Narrowed
	// Product is the constraint automaton, nil for stateless flows.
	Product *pathre.Product
	// Nodes lists the reachable (symbol, state) pairs; Nodes[Root] is
	// the root symbol at its initial state.
	Nodes []FlowNode
	// Vars[i] is the count variable of Nodes[i].
	Vars []ilp.Var
	// Root is the index of the root node.
	Root int

	// ops[i] are node i's operand nodes in its own state: A and B of
	// a sequence or choice, A of a star, and for a RuleRef the element
	// node it feeds (in the stepped state). Unused entries are -1.
	ops [][2]int32
	// elements lists the original-type nodes in ascending order.
	elements []int
	// slot[q] is product state q's row in index, or -1 while no node
	// has state q; index[row*N.NumSymbols()+sym] is the node of (sym,
	// q), or -1.
	slot  []int32
	index []int32
	// feedStart and feeds list, CSR style, the RuleRef nodes feeding
	// each node: feeds[feedStart[i]:feedStart[i+1]] for node i.
	feedStart []int32
	feeds     []int32
}

// Lookup returns the index of the node of an element type in a given
// state, or -1.
func (f *Flow) Lookup(sym string, state int) int {
	id, ok := f.N.ID(sym)
	if !ok {
		return -1
	}
	return f.node(id, state)
}

// node returns the index of the (symbol id, state) node, or -1.
func (f *Flow) node(sym, state int) int {
	if state < 0 || state >= len(f.slot) || f.slot[state] < 0 {
		return -1
	}
	return int(f.index[int(f.slot[state])*f.N.NumSymbols()+sym])
}

// rule returns the narrowed production of node i's symbol.
func (f *Flow) rule(i int) dtd.Rule { return f.N.Rules[f.Nodes[i].Sym] }

// operandA and operandB return node i's first and second operand
// nodes; operandA of a RuleRef node is the element node it feeds.
func (f *Flow) operandA(i int) int { return int(f.ops[i][0]) }
func (f *Flow) operandB(i int) int { return int(f.ops[i][1]) }

// feeders returns the RuleRef nodes feeding node i.
func (f *Flow) feeders(i int) []int32 { return f.feeds[f.feedStart[i]:f.feedStart[i+1]] }

// nodeString renders node i as {name state} for error messages.
func (f *Flow) nodeString(i int) string {
	return fmt.Sprintf("{%s %d}", f.N.Name(f.Nodes[i].Sym), f.Nodes[i].State)
}

// BuildFlow constructs the counting graph of the narrowed DTD into the
// given system. With product == nil the flow is stateless (the [14]
// encoding); otherwise symbols are tagged with reachable product
// states (the Ψ_D^Σ encoding of Theorem 3.4).
//
// Nodes are indexed by (symbol id, state) in dense tables, and the
// count variables are created after the reachability closure, in node
// order: x(sym) for stateless flows, x(sym@state) otherwise.
func BuildFlow(sys *ilp.System, n *dtd.Narrowed, product *pathre.Product) *Flow {
	nsym := n.NumSymbols()
	f := &Flow{
		Sys:      sys,
		N:        n,
		Product:  product,
		Nodes:    make([]FlowNode, 0, nsym),
		ops:      make([][2]int32, 0, nsym),
		elements: make([]int, 0, len(n.Orig.Names)),
	}
	states := 1
	var cols []int
	rootState := 0
	if product != nil {
		states = product.NumStates()
		// cols[u] is element type u's column in the product's
		// transition table.
		cols = make([]int, len(n.Orig.Names))
		for u, name := range n.Orig.Names {
			cols[u] = product.DFAs[0].Index[name]
		}
		rootState = product.Trans[cols[n.Root]]
	}
	f.slot = make([]int32, states)
	for q := range f.slot {
		f.slot[q] = -1
	}
	intern := func(sym, state int) int32 {
		row := f.slot[state]
		if row < 0 {
			row = int32(len(f.index) / nsym)
			f.slot[state] = row
			f.index = slices.Grow(f.index, nsym)[:len(f.index)+nsym]
			for k := len(f.index) - nsym; k < len(f.index); k++ {
				f.index[k] = -1
			}
		}
		at := int(row)*nsym + sym
		if i := f.index[at]; i >= 0 {
			return i
		}
		i := int32(len(f.Nodes))
		f.index[at] = i
		f.Nodes = append(f.Nodes, FlowNode{sym, state})
		f.ops = append(f.ops, [2]int32{-1, -1})
		if n.IsOriginal(sym) {
			f.elements = append(f.elements, int(i))
		}
		return i
	}
	f.Root = int(intern(n.Root, rootState))

	// Reachability closure over (symbol, state) pairs. intern grows
	// ops, so each operand is interned before ops[q] is written.
	refs := 0
	for q := 0; q < len(f.Nodes); q++ {
		nd := f.Nodes[q]
		r := n.Rules[nd.Sym]
		switch r.Kind {
		case dtd.RuleSeq, dtd.RuleChoice:
			a := intern(r.A, nd.State)
			b := intern(r.B, nd.State)
			f.ops[q] = [2]int32{a, b}
		case dtd.RuleStar:
			a := intern(r.A, nd.State)
			f.ops[q][0] = a
		case dtd.RuleRef:
			state := nd.State
			if product != nil {
				state = product.Trans[state*len(product.Alphabet)+cols[r.A]]
			}
			t := intern(r.A, state)
			f.ops[q][0] = t
			refs++
		}
	}

	// Count variables, in node order.
	f.Vars = make([]ilp.Var, len(f.Nodes))
	for i, nd := range f.Nodes {
		f.Vars[i] = sys.NewVarFunc(func(b []byte) []byte {
			b = n.AppendName(append(b, "x("...), nd.Sym)
			if product != nil {
				b = strconv.AppendInt(append(b, '@'), int64(nd.State), 10)
			}
			return append(b, ')')
		})
	}

	// The RuleRef nodes feeding each node, in ascending order: count
	// them into feedStart[t+1], sum, fill while advancing feedStart[t]
	// to the next node's start, then shift the starts back.
	f.feedStart = make([]int32, len(f.Nodes)+1)
	for q := range f.Nodes {
		if f.rule(q).Kind == dtd.RuleRef {
			f.feedStart[f.ops[q][0]+1]++
		}
	}
	for i := 1; i < len(f.feedStart); i++ {
		f.feedStart[i] += f.feedStart[i-1]
	}
	f.feeds = make([]int32, refs)
	for q := range f.Nodes {
		if f.rule(q).Kind == dtd.RuleRef {
			t := f.ops[q][0]
			f.feeds[f.feedStart[t]] = int32(q)
			f.feedStart[t]++
		}
	}
	copy(f.feedStart[1:], f.feedStart[:len(f.Nodes)])
	f.feedStart[0] = 0

	// Equations: the root row, one or two rows per sequence or choice
	// node, one conditional per star, one sum per non-root element.
	lins, conds := len(f.elements), 0
	for _, nd := range f.Nodes {
		switch n.Rules[nd.Sym].Kind {
		case dtd.RuleSeq:
			lins += 2
		case dtd.RuleChoice:
			lins++
		case dtd.RuleStar:
			conds++
		}
	}
	sys.Lins = slices.Grow(sys.Lins, lins)
	sys.Conds = slices.Grow(sys.Conds, conds)
	sys.AddConst(f.Vars[f.Root], 1)
	for i, nd := range f.Nodes {
		switch n.Rules[nd.Sym].Kind {
		case dtd.RuleSeq:
			sys.AddVarEQ(f.Vars[f.operandA(i)], f.Vars[i])
			sys.AddVarEQ(f.Vars[f.operandB(i)], f.Vars[i])
		case dtd.RuleChoice:
			sys.AddSumEQ(f.Vars[i], []ilp.Var{f.Vars[f.operandA(i)], f.Vars[f.operandB(i)]})
		case dtd.RuleStar:
			sys.AddCondVar(f.Vars[f.operandA(i)], f.Vars[i])
		}
	}
	// Original element types: count = Σ of feeding RuleRef symbols
	// (each RuleRef instance contributes exactly one element).
	feeders := make([]ilp.Var, 0, refs)
	for _, i := range f.elements {
		if i == f.Root {
			continue
		}
		feeders = feeders[:0]
		for _, src := range f.feeders(i) {
			feeders = append(feeders, f.Vars[src])
		}
		sys.AddSumEQ(f.Vars[i], feeders)
	}
	return f
}

// RecordSizes publishes the encoding's size dimensions as obs
// counters (high-water marks, so the largest encoding of a multi-scope
// check wins). A nil recorder no-ops.
func (f *Flow) RecordSizes(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	rec.Set("encode.flow_nodes", int64(len(f.Nodes)))
	rec.Set("encode.variables", int64(f.Sys.NumVars()))
	rec.Set("encode.linear", int64(len(f.Sys.Lins)))
	rec.Set("encode.conditional", int64(len(f.Sys.Conds)))
	rec.Set("encode.prequadratic", int64(len(f.Sys.Quads)))
	rec.Set("encode.constraints", int64(len(f.Sys.Lins)+len(f.Sys.Conds)+len(f.Sys.Quads)))
	if f.Product != nil {
		rec.Set("encode.automaton_states", int64(f.Product.NumStates()))
	}
}

// ElementNodes returns the indices of flow nodes that are original
// element types (the nodes that become XML elements), in ascending
// order. The slice is the flow's own; callers must not modify it.
func (f *Flow) ElementNodes() []int { return f.elements }

// TypeNodes returns the indices of the flow nodes of one original
// element type (across states).
func (f *Flow) TypeNodes(typ string) []int {
	id, ok := f.N.ID(typ)
	if !ok {
		return nil
	}
	var out []int
	for _, i := range f.elements {
		if f.Nodes[i].Sym == id {
			out = append(out, i)
		}
	}
	return out
}

// UnreachedSupport returns a positive-count component of the solution
// that is not reachable from the root through positive-flow edges, or
// nil when the support is connected (and the solution therefore
// realizable as a tree).
func (f *Flow) UnreachedSupport(vals []int64) []int {
	val := func(i int) int64 { return vals[f.Vars[i]] }
	reached := make([]bool, len(f.Nodes))
	queue := []int{}
	if val(f.Root) > 0 {
		reached[f.Root] = true
		queue = append(queue, f.Root)
	}
	push := func(i int) {
		if !reached[i] {
			reached[i] = true
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		if val(i) == 0 {
			continue
		}
		switch f.rule(i).Kind {
		case dtd.RuleSeq:
			push(f.operandA(i))
			push(f.operandB(i))
		case dtd.RuleChoice:
			if a := f.operandA(i); val(a) > 0 {
				push(a)
			}
			if b := f.operandB(i); val(b) > 0 {
				push(b)
			}
		case dtd.RuleStar:
			if a := f.operandA(i); val(a) > 0 {
				push(a)
			}
		case dtd.RuleRef:
			push(f.operandA(i))
		}
	}
	var comp []int
	for i := range f.Nodes {
		if val(i) > 0 && !reached[i] {
			comp = append(comp, i)
		}
	}
	return comp
}

// VerifyAssignment checks a name-keyed assignment against the flow's
// full constraint system and the support-connectivity condition — the
// two facts that together make a cardinality vector realizable as a
// tree. It never invokes a solver, which is the point: certificates
// are checked by evaluation, not by search.
func (f *Flow) VerifyAssignment(vec map[string]int64) error {
	vals, err := f.Sys.Vector(vec)
	if err != nil {
		return err
	}
	if err := f.Sys.Eval(vals); err != nil {
		return err
	}
	if comp := f.UnreachedSupport(vals); len(comp) > 0 {
		names := make([]string, len(comp))
		for i, c := range comp {
			names[i] = f.Sys.Name(f.Vars[c])
		}
		return fmt.Errorf("cardinality: solution support is disconnected from the root at %v", names)
	}
	return nil
}

// AddCut installs the connectivity cut for an unreached component C:
// if any count in C is positive, some edge crossing into C from
// outside must be active. Each such cut excludes the current spurious
// solution and is valid for every tree-realizable one, so the decide
// loop converges (no component set can recur).
func (f *Flow) AddCut(comp []int) {
	inC := make([]bool, len(f.Nodes))
	for _, i := range comp {
		inC[i] = true
	}
	var ifTerms, thenTerms []ilp.Term
	for _, i := range comp {
		ifTerms = append(ifTerms, ilp.T(1, f.Vars[i]))
	}
	seen := make([]bool, f.Sys.NumVars())
	addThen := func(v ilp.Var) {
		if !seen[v] {
			seen[v] = true
			thenTerms = append(thenTerms, ilp.T(1, v))
		}
	}
	for i := range f.Nodes {
		if inC[i] {
			continue
		}
		switch f.rule(i).Kind {
		case dtd.RuleSeq, dtd.RuleChoice:
			// Operand variables serve as the activity proxies (both
			// equal x_i for a sequence).
			for _, op := range f.ops[i] {
				if inC[op] {
					addThen(f.Vars[op])
				}
			}
		case dtd.RuleStar:
			if op := f.operandA(i); inC[op] {
				addThen(f.Vars[op])
			}
		case dtd.RuleRef:
			if inC[f.operandA(i)] {
				addThen(f.Vars[i])
			}
		}
	}
	if len(thenTerms) == 0 {
		// No edge can ever enter the component: its counts must be 0.
		for _, i := range comp {
			f.Sys.AddConst(f.Vars[i], 0)
		}
		return
	}
	f.Sys.AddCond(ifTerms, thenTerms)
}

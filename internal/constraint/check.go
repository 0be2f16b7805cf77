package constraint

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/pathre"
	"repro/internal/xmltree"
)

// Violation reports one constraint violation found in a document.
type Violation struct {
	// Constraint is the violated constraint, rendered.
	Constraint string
	// Msg explains the violation.
	Msg string
	// Nodes are the offending nodes (two for a key clash, one for a
	// dangling foreign key).
	Nodes []*xmltree.Node
}

func (v Violation) String() string {
	var paths []string
	for _, n := range v.Nodes {
		paths = append(paths, strings.Join(n.Path(), "."))
	}
	if len(paths) == 0 {
		return fmt.Sprintf("%s: %s", v.Constraint, v.Msg)
	}
	return fmt.Sprintf("%s: %s (at %s)", v.Constraint, v.Msg, strings.Join(paths, ", "))
}

// Check evaluates T ⊨ Σ and returns all violations (nil means the
// document satisfies the set). Nodes missing a constrained attribute
// are reported as violations: the paper's model gives every τ element
// exactly the attributes R(τ), so a missing attribute means the
// document does not even conform to the DTD the set was validated
// against.
func Check(t *xmltree.Tree, set *Set) []Violation { return CheckWith(t, set, nil) }

// Satisfies reports whether the document satisfies the set.
func Satisfies(t *xmltree.Tree, set *Set) bool { return len(Check(t, set)) == 0 }

// Automata supplies the path automata of a check: PathDFA returns an
// automaton accepting the root-to-node label paths of β.τ for a path
// target β.τ, over an alphabet holding every label of the checked
// tree, or nil to have the checker compile one. The checker only
// reads the automata it is given.
type Automata interface {
	PathDFA(tgt Target) *pathre.DFA
}

// CheckWith is Check with the path automata taken from src where it
// has them; a nil src compiles every path target's automaton, as
// Check does. The violations are Check's, in Check's order.
func CheckWith(t *xmltree.Tree, set *Set, src Automata) []Violation {
	c := &checker{t: t, set: set, src: src, root: [1]*xmltree.Node{t.Root}}
	var out []Violation
	for _, k := range set.Keys {
		out = append(out, c.checkKey(k)...)
	}
	for _, inc := range set.Incls {
		out = append(out, c.checkInclusion(inc)...)
	}
	return out
}

// checker is the state of one Check call. A path target's extent does
// not depend on the scope, so each distinct (β, τ) target is matched
// against the tree once per call, however many constraints and scopes
// mention it; its automaton comes from the call's Automata or is
// compiled once. The nodes of the context types and of the type-based
// absolute targets are bucketed by label in one pass, the first time
// one of them is needed.
type checker struct {
	t       *xmltree.Tree
	set     *Set
	src     Automata
	syms    []string
	paths   []pathExtent
	byLabel map[string][]*xmltree.Node
	// root is the one scope of every absolute constraint.
	root [1]*xmltree.Node
	// tuples is the tuple map every scope reuses, and scratch the
	// buffer every relative type-based extent is collected in.
	tuples  map[string]*xmltree.Node
	scratch []*xmltree.Node
}

// pathExtent is the memoized node list of one path target.
type pathExtent struct {
	path  *pathre.Expr
	typ   string
	nodes []*xmltree.Node
}

// alphabet returns the DFA alphabet shared by every path target the
// call compiles: the tree's labels plus every symbol of the set's path
// targets, sorted.
func (c *checker) alphabet() []string {
	if c.syms != nil {
		return c.syms
	}
	seen := map[string]bool{}
	c.t.Walk(func(n *xmltree.Node) { seen[n.Label] = true })
	add := func(tgt Target) {
		if tgt.Path != nil {
			seen[tgt.Type] = true
			for _, s := range tgt.Path.Symbols() {
				seen[s] = true
			}
		}
	}
	for _, k := range c.set.Keys {
		add(k.Target)
	}
	for _, inc := range c.set.Incls {
		add(inc.From)
		add(inc.To)
	}
	c.syms = make([]string, 0, len(seen))
	for s := range seen {
		c.syms = append(c.syms, s)
	}
	sort.Strings(c.syms)
	return c.syms
}

// ext returns ext(τ), the element nodes labelled typ in document
// order, for a context type or the type of a type-based absolute
// target of the set. One walk buckets the nodes of all those types.
func (c *checker) ext(typ string) []*xmltree.Node {
	if c.byLabel == nil {
		c.byLabel = map[string][]*xmltree.Node{}
		need := func(context string, tgt Target) {
			if context != "" {
				c.byLabel[context] = nil
			} else if tgt.Path == nil {
				c.byLabel[tgt.Type] = nil
			}
		}
		for _, k := range c.set.Keys {
			need(k.Context, k.Target)
		}
		for _, inc := range c.set.Incls {
			need(inc.Context, inc.From)
			need(inc.Context, inc.To)
		}
		c.t.Walk(func(n *xmltree.Node) {
			if nodes, ok := c.byLabel[n.Label]; ok {
				c.byLabel[n.Label] = append(nodes, n)
			}
		})
	}
	return c.byLabel[typ]
}

// extent returns the nodes a target ranges over: the whole document
// (root included) for absolute constraints, and the proper descendants
// of the scope node for relative ones (the x ≺ y of Section 4).
func (c *checker) extent(scope *xmltree.Node, relative bool, tgt Target) []*xmltree.Node {
	if tgt.Path != nil {
		for _, p := range c.paths {
			if p.path == tgt.Path && p.typ == tgt.Type {
				return p.nodes
			}
		}
		var dfa *pathre.DFA
		if c.src != nil {
			dfa = c.src.PathDFA(tgt)
		}
		if dfa == nil {
			dfa = pathre.CompileDFA(pathre.Concat(tgt.Path, pathre.Symbol(tgt.Type)), c.alphabet())
		}
		nodes := c.t.NodesAccepted(dfa)
		c.paths = append(c.paths, pathExtent{tgt.Path, tgt.Type, nodes})
		return nodes
	}
	if !relative {
		return c.ext(tgt.Type)
	}
	// A relative extent is read once, before the next extent is asked
	// for, so every one is collected in the same buffer.
	c.scratch = c.scratch[:0]
	for _, k := range scope.Children {
		c.scratch = appendLabelled(c.scratch, k, tgt.Type)
	}
	return c.scratch
}

// appendLabelled appends the element nodes labelled typ of the subtree
// at n to out, in document order.
func appendLabelled(out []*xmltree.Node, n *xmltree.Node, typ string) []*xmltree.Node {
	if n.IsText {
		return out
	}
	if n.Label == typ {
		out = append(out, n)
	}
	for _, k := range n.Children {
		out = appendLabelled(out, k, typ)
	}
	return out
}

// contexts returns the scopes a constraint is evaluated in: the tree
// root for absolute constraints, every node of the context type for
// relative ones.
func (c *checker) contexts(context string) []*xmltree.Node {
	if context == "" {
		return c.root[:]
	}
	return c.ext(context)
}

func (c *checker) checkKey(k Key) []Violation {
	var out []Violation
	for _, scope := range c.contexts(k.Context) {
		seen := c.seen()
		for _, n := range c.extent(scope, k.Context != "", k.Target) {
			key, ok := tupleKey(n, k.Target.Attrs)
			if !ok {
				out = append(out, Violation{
					Constraint: k.String(),
					Msg:        fmt.Sprintf("node lacks key attribute(s) %v", k.Target.Attrs),
					Nodes:      []*xmltree.Node{n},
				})
				continue
			}
			if prev, dup := seen[key]; dup {
				vals, _ := n.AttrList(k.Target.Attrs)
				out = append(out, Violation{
					Constraint: k.String(),
					Msg:        fmt.Sprintf("duplicate key value %v", vals),
					Nodes:      []*xmltree.Node{prev, n},
				})
				continue
			}
			seen[key] = n
		}
	}
	return out
}

func (c *checker) checkInclusion(inc Inclusion) []Violation {
	var out []Violation
	// Tuples of different arities never match. encodeTuple keys a
	// one-value tuple by the bare value, which could equal a longer
	// tuple's key, so a set that failed validation with an arity
	// mismatch must not probe the map at all.
	sameArity := len(inc.From.Attrs) == len(inc.To.Attrs)
	for _, scope := range c.contexts(inc.Context) {
		have := c.seen()
		for _, n := range c.extent(scope, inc.Context != "", inc.To) {
			if key, ok := tupleKey(n, inc.To.Attrs); ok {
				have[key] = n
			}
		}
		for _, n := range c.extent(scope, inc.Context != "", inc.From) {
			key, ok := tupleKey(n, inc.From.Attrs)
			if !ok {
				out = append(out, Violation{
					Constraint: inc.String(),
					Msg:        fmt.Sprintf("node lacks foreign-key attribute(s) %v", inc.From.Attrs),
					Nodes:      []*xmltree.Node{n},
				})
				continue
			}
			if _, found := have[key]; !sameArity || !found {
				vals, _ := n.AttrList(inc.From.Attrs)
				out = append(out, Violation{
					Constraint: inc.String(),
					Msg:        fmt.Sprintf("value %v has no matching %s", vals, inc.To),
					Nodes:      []*xmltree.Node{n},
				})
			}
		}
	}
	return out
}

// seen returns the call's tuple map, emptied: each scope of a key or
// an inclusion collects the tuples it has met in it.
func (c *checker) seen() map[string]*xmltree.Node {
	if c.tuples == nil {
		c.tuples = map[string]*xmltree.Node{}
	}
	clear(c.tuples)
	return c.tuples
}

// tupleKey returns the map key of n's values of attrs, and false when
// n lacks one of them.
func tupleKey(n *xmltree.Node, attrs []string) (string, bool) {
	if len(attrs) == 1 {
		v, ok := n.Attrs[attrs[0]]
		return v, ok
	}
	vals, ok := n.AttrList(attrs)
	if !ok {
		return "", false
	}
	return encodeTuple(vals), true
}

// encodeTuple encodes a value list as a map key. A one-value tuple is
// keyed by the value itself; longer tuples are length-prefixed so they
// stay unambiguous. Each map holds (and is probed with) tuples of one
// arity only, so the two forms never meet.
func encodeTuple(vals []string) string {
	if len(vals) == 1 {
		return vals[0]
	}
	n := 0
	for _, v := range vals {
		n += len(v) + 4
	}
	b := make([]byte, 0, n)
	for _, v := range vals {
		b = strconv.AppendInt(b, int64(len(v)), 10)
		b = append(b, ':')
		b = append(b, v...)
		b = append(b, ';')
	}
	return string(b)
}

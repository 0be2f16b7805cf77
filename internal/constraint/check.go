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
func Check(t *xmltree.Tree, set *Set) []Violation {
	c := &checker{t: t, set: set}
	var out []Violation
	for _, k := range set.Keys {
		out = append(out, c.checkKey(k)...)
	}
	for _, inc := range set.Incls {
		out = append(out, c.checkInclusion(inc)...)
	}
	return out
}

// Satisfies reports whether the document satisfies the set.
func Satisfies(t *xmltree.Tree, set *Set) bool { return len(Check(t, set)) == 0 }

// checker is the state of one Check call. A path target's extent does
// not depend on the scope, so each distinct (β, τ) target is compiled
// to a DFA and matched against the tree once per call, however many
// constraints and scopes mention it.
type checker struct {
	t     *xmltree.Tree
	set   *Set
	syms  []string
	paths []pathExtent
}

// pathExtent is the memoized node list of one path target.
type pathExtent struct {
	path  *pathre.Expr
	typ   string
	nodes []*xmltree.Node
}

// alphabet returns the DFA alphabet shared by every path target of
// the call: the tree's labels plus every symbol of the set's path
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
		dfa := pathre.CompileDFA(pathre.Concat(tgt.Path, pathre.Symbol(tgt.Type)), c.alphabet())
		nodes := c.t.NodesAccepted(dfa)
		c.paths = append(c.paths, pathExtent{tgt.Path, tgt.Type, nodes})
		return nodes
	}
	var out []*xmltree.Node
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		if n.Label == tgt.Type {
			out = append(out, n)
		}
		for _, k := range n.Children {
			if !k.IsText {
				walk(k)
			}
		}
	}
	if scope == nil {
		scope = c.t.Root
	}
	if relative {
		for _, k := range scope.Children {
			if !k.IsText {
				walk(k)
			}
		}
	} else {
		walk(scope)
	}
	return out
}

// contexts returns the scopes a constraint is evaluated in: the tree
// root for absolute constraints, every node of the context type for
// relative ones.
func contexts(t *xmltree.Tree, context string) []*xmltree.Node {
	if context == "" {
		return []*xmltree.Node{t.Root}
	}
	return t.Ext(context)
}

func (c *checker) checkKey(k Key) []Violation {
	var out []Violation
	for _, scope := range contexts(c.t, k.Context) {
		seen := map[string]*xmltree.Node{}
		for _, n := range c.extent(scope, k.Context != "", k.Target) {
			vals, ok := n.AttrList(k.Target.Attrs)
			if !ok {
				out = append(out, Violation{
					Constraint: k.String(),
					Msg:        fmt.Sprintf("node lacks key attribute(s) %v", k.Target.Attrs),
					Nodes:      []*xmltree.Node{n},
				})
				continue
			}
			key := encodeTuple(vals)
			if prev, dup := seen[key]; dup {
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
	for _, scope := range contexts(c.t, inc.Context) {
		have := map[string]bool{}
		for _, n := range c.extent(scope, inc.Context != "", inc.To) {
			if vals, ok := n.AttrList(inc.To.Attrs); ok {
				have[encodeTuple(vals)] = true
			}
		}
		for _, n := range c.extent(scope, inc.Context != "", inc.From) {
			vals, ok := n.AttrList(inc.From.Attrs)
			if !ok {
				out = append(out, Violation{
					Constraint: inc.String(),
					Msg:        fmt.Sprintf("node lacks foreign-key attribute(s) %v", inc.From.Attrs),
					Nodes:      []*xmltree.Node{n},
				})
				continue
			}
			if !sameArity || !have[encodeTuple(vals)] {
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

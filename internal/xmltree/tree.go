// Package xmltree implements the XML tree model of Definition 2.2 of
// the paper: node-labelled trees T = (V, lab, ele, att, val, root)
// whose element nodes carry ordered lists of sub-elements and text
// nodes plus unordered attribute values. The package provides
// conformance checking T ⊨ D against a DTD, the ext(τ)/ext(τ.l) and
// nodes(β.τ) extents the constraint semantics are defined on, an XML
// document parser and serializer, and a random generator of conforming
// trees.
package xmltree

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/contentmodel"
	"repro/internal/dtd"
	"repro/internal/pathre"
)

// Node is an element or text node. Attribute values are stored on
// their element node (the attribute nodes of Definition 2.2 are
// implicit). Node identity — the "=" of the key semantics — is pointer
// identity.
type Node struct {
	// Label is the element type for element nodes and empty for text
	// nodes.
	Label string
	// Text is the value of a text node (valid only when IsText).
	Text string
	// IsText marks text (S-labelled) nodes.
	IsText bool
	// Children is the ordered list ele(v) of sub-elements and text
	// nodes.
	Children []*Node
	// Attrs maps attribute names to values (val(att(v, l))).
	Attrs map[string]string
	// Parent is the parent element (nil for the root).
	Parent *Node
}

// NewElement returns a fresh element node with the given type.
func NewElement(label string) *Node {
	return &Node{Label: label, Attrs: map[string]string{}}
}

// NewText returns a fresh text node.
func NewText(value string) *Node {
	return &Node{IsText: true, Text: value}
}

// Append adds children to the node, setting their parent pointers, and
// returns the node.
func (n *Node) Append(kids ...*Node) *Node {
	for _, k := range kids {
		k.Parent = n
		n.Children = append(n.Children, k)
	}
	return n
}

// SetAttr sets an attribute value and returns the node.
func (n *Node) SetAttr(name, value string) *Node {
	if n.Attrs == nil {
		n.Attrs = map[string]string{}
	}
	n.Attrs[name] = value
	return n
}

// Attr returns the attribute value x.l and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	v, ok := n.Attrs[name]
	return v, ok
}

// AttrList returns x[X]: the list of values of the given attributes,
// and false if any is missing.
func (n *Node) AttrList(names []string) ([]string, bool) {
	out := make([]string, len(names))
	for i, l := range names {
		v, ok := n.Attrs[l]
		if !ok {
			return nil, false
		}
		out[i] = v
	}
	return out, true
}

// Path returns the list of element type labels from the root down to
// (and including) this node: the ρ(root, n) of Section 3.2.
func (n *Node) Path() []string {
	var rev []string
	for cur := n; cur != nil; cur = cur.Parent {
		rev = append(rev, cur.Label)
	}
	out := make([]string, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// Descendant reports whether d is a proper descendant of n (n ≺ d).
func (n *Node) Descendant(d *Node) bool {
	for cur := d.Parent; cur != nil; cur = cur.Parent {
		if cur == n {
			return true
		}
	}
	return false
}

// Tree is a rooted XML tree.
type Tree struct {
	Root *Node
}

// Walk visits every element node in document order.
func (t *Tree) Walk(fn func(n *Node)) {
	if t.Root != nil {
		walk(t.Root, fn)
	}
}

func walk(n *Node, fn func(n *Node)) {
	if n.IsText {
		return
	}
	fn(n)
	for _, k := range n.Children {
		walk(k, fn)
	}
}

// Size returns the number of element nodes.
func (t *Tree) Size() int {
	n := 0
	t.Walk(func(*Node) { n++ })
	return n
}

// Ext returns ext(τ): all element nodes of the given type in document
// order.
func (t *Tree) Ext(typ string) []*Node {
	var out []*Node
	t.Walk(func(n *Node) {
		if n.Label == typ {
			out = append(out, n)
		}
	})
	return out
}

// ExtAttr returns ext(τ.l): the set of l-attribute values of τ nodes.
func (t *Tree) ExtAttr(typ, attr string) map[string]bool {
	out := map[string]bool{}
	t.Walk(func(n *Node) {
		if n.Label == typ {
			if v, ok := n.Attrs[attr]; ok {
				out[v] = true
			}
		}
	})
	return out
}

// NodesMatching returns nodes(β): the element nodes y with ρ(root, y)
// in the language of the expression, in document order. The expression
// is matched against full root-to-node label paths (so it normally
// starts with the root type, as in the paper's examples).
func (t *Tree) NodesMatching(beta *pathre.Expr) []*Node {
	if t.Root == nil {
		return nil
	}
	alphabet := map[string]bool{}
	t.Walk(func(n *Node) { alphabet[n.Label] = true })
	for _, s := range beta.Symbols() {
		alphabet[s] = true
	}
	syms := make([]string, 0, len(alphabet))
	for s := range alphabet {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	return t.NodesAccepted(pathre.CompileDFA(beta, syms))
}

// NodesAccepted returns the element nodes whose root-to-node label path
// the DFA accepts, in document order. The DFA's alphabet must contain
// every label of the tree.
func (t *Tree) NodesAccepted(dfa *pathre.DFA) []*Node {
	if t.Root == nil {
		return nil
	}
	var out []*Node
	var walk func(n *Node, state int)
	walk = func(n *Node, state int) {
		state = dfa.Step(state, n.Label)
		if dfa.Accept[state] {
			out = append(out, n)
		}
		for _, k := range n.Children {
			if !k.IsText {
				walk(k, state)
			}
		}
	}
	walk(t.Root, dfa.Start)
	return out
}

// ConformanceError describes a violation of T ⊨ D.
type ConformanceError struct {
	// Node is the offending element.
	Node *Node
	// Msg describes the violation.
	Msg string
}

func (e *ConformanceError) Error() string {
	where := "document"
	if e.Node != nil {
		where = strings.Join(e.Node.Path(), ".")
	}
	return fmt.Sprintf("xmltree: at %s: %s", where, e.Msg)
}

// Conforms checks T ⊨ D (Definition 2.2): the root has the root type,
// every element's child labels form a word in P(τ), and every element
// carries exactly the attributes R(τ). It returns the first violation.
// Each content model other than EMPTY is compiled to its position
// automaton the first time the walk meets its type, and every
// element's children run on that automaton without building their
// word.
func (t *Tree) Conforms(d *dtd.DTD) error {
	if t.Root == nil {
		return &ConformanceError{Msg: "empty tree"}
	}
	if t.Root.Label != d.Root {
		return &ConformanceError{Node: t.Root, Msg: fmt.Sprintf("root has type %q, want %q", t.Root.Label, d.Root)}
	}
	c := conformer{d: d}
	return c.check(t.Root)
}

// conformer is the state of one Conforms call: the content automata
// compiled so far.
type conformer struct {
	d      *dtd.DTD
	models map[*dtd.Element]*contentmodel.Automaton
}

// model returns the content automaton of el, or nil for EMPTY content,
// which only the empty word matches.
func (c *conformer) model(el *dtd.Element) *contentmodel.Automaton {
	if el.Content.Kind == contentmodel.Empty {
		return nil
	}
	m, ok := c.models[el]
	if !ok {
		if c.models == nil {
			c.models = map[*dtd.Element]*contentmodel.Automaton{}
		}
		m = el.Content.Compile()
		c.models[el] = m
	}
	return m
}

func (c *conformer) check(n *Node) error {
	el := c.d.Element(n.Label)
	if el == nil {
		return &ConformanceError{Node: n, Msg: fmt.Sprintf("element type %q not declared", n.Label)}
	}
	if !matchChildren(c.model(el), n.Children) {
		return &ConformanceError{Node: n, Msg: fmt.Sprintf("children %v do not match content model %s", childWord(n), el.Content)}
	}
	// att(v, l) is defined iff l ∈ R(τ): attributes must match
	// exactly.
	for _, l := range el.Attrs {
		if _, ok := n.Attrs[l]; !ok {
			return &ConformanceError{Node: n, Msg: fmt.Sprintf("missing attribute %q", l)}
		}
	}
	if len(n.Attrs) != len(el.Attrs) {
		for l := range n.Attrs {
			if !el.HasAttr(l) {
				return &ConformanceError{Node: n, Msg: fmt.Sprintf("undeclared attribute %q", l)}
			}
		}
	}
	for _, k := range n.Children {
		if !k.IsText {
			if err := c.check(k); err != nil {
				return err
			}
		}
	}
	return nil
}

// matchChildren runs the content automaton over the children's labels,
// text children reading contentmodel.TextSymbol; a nil automaton
// matches no children.
func matchChildren(m *contentmodel.Automaton, kids []*Node) bool {
	if m == nil {
		return len(kids) == 0
	}
	m.Reset()
	for _, k := range kids {
		sym := k.Label
		if k.IsText {
			sym = contentmodel.TextSymbol
		}
		if !m.Step(sym) {
			return false
		}
	}
	return m.Accepting()
}

// childWord returns the word of child labels of n, text children as
// contentmodel.TextSymbol.
func childWord(n *Node) []string {
	word := make([]string, len(n.Children))
	for i, k := range n.Children {
		if k.IsText {
			word[i] = contentmodel.TextSymbol
		} else {
			word[i] = k.Label
		}
	}
	return word
}

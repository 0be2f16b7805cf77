// Package pathre implements the "vertical" regular path expressions of
// Section 3.2 of the paper:
//
//	β ::= ε | τ | _ | β.β | β∪β | β*
//
// where τ is an element type, '_' is a wildcard matching any element
// type, '.' concatenates path steps, '∪' (also written '|') is union
// and '*' the Kleene closure. Expressions denote sets of paths (words
// over the element-type alphabet). The package provides a parser,
// Thompson NFAs, subset-construction DFAs over an explicit alphabet,
// the product automaton used by the state-tagged cardinality encoding
// of Theorem 3.4, and language containment tests.
package pathre

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"
)

// Kind discriminates the AST node variants of a path expression.
type Kind int

// The path-expression AST node kinds.
const (
	// Eps matches only the empty path.
	Eps Kind = iota
	// Sym matches the single element type in field Name.
	Sym
	// Wild matches any single element type.
	Wild
	// Cat is n-ary concatenation.
	Cat
	// Alt is n-ary union.
	Alt
	// Star is the Kleene closure of its single child.
	Star
)

// Expr is a node of a path regular expression.
type Expr struct {
	Kind Kind
	Name string  // for Sym
	Kids []*Expr // operands for Cat/Alt (≥2) and Star (1)
}

// Epsilon returns the ε path expression.
func Epsilon() *Expr { return &Expr{Kind: Eps} }

// Symbol returns the single-step expression for an element type.
func Symbol(name string) *Expr { return &Expr{Kind: Sym, Name: name} }

// Wildcard returns the '_' expression.
func Wildcard() *Expr { return &Expr{Kind: Wild} }

// Concat returns the concatenation of the operands, flattening nested
// concatenations and dropping ε. It does not retain xs.
func Concat(xs ...*Expr) *Expr { return join(nil, Cat, xs) }

// Union returns the union of the operands, flattening nested unions.
// It does not retain xs.
func Union(xs ...*Expr) *Expr { return join(nil, Alt, xs) }

// join is Concat (kind Cat) and Union (kind Alt). It takes the node and
// its operand list from p's slabs, or allocates them when p is nil.
func join(p *rparser, kind Kind, xs []*Expr) *Expr {
	// ε is the unit of concatenation.
	skip := func(x *Expr) bool { return kind == Cat && x.Kind == Eps }
	n := 0
	for _, x := range xs {
		switch {
		case skip(x):
		case x.Kind == kind:
			n += len(x.Kids)
		default:
			n++
		}
	}
	if n <= 1 {
		for _, x := range xs {
			switch {
			case skip(x):
			case x.Kind == kind && len(x.Kids) == 1:
				return x.Kids[0]
			case x.Kind != kind:
				return x
			}
		}
		return p.node(Eps, "", nil)
	}
	kids := p.list(n)
	for _, x := range xs {
		switch {
		case skip(x):
		case x.Kind == kind:
			kids = append(kids, x.Kids...)
		default:
			kids = append(kids, x)
		}
	}
	return p.node(kind, "", kids)
}

// Closure returns the Kleene closure of x.
func Closure(x *Expr) *Expr { return closure(nil, x) }

// closure is Closure, taking its node and operand list from p's slabs,
// or allocating them when p is nil.
func closure(p *rparser, x *Expr) *Expr {
	switch x.Kind {
	case Eps:
		return p.node(Eps, "", nil)
	case Star:
		return x
	}
	return p.node(Star, "", append(p.list(1), x))
}

// AnyPath returns "_*", the match-anything path used pervasively in
// the paper's examples (e.g. r._*.student).
func AnyPath() *Expr { return Closure(Wildcard()) }

// Symbols returns the sorted set of element type names mentioned.
func (e *Expr) Symbols() []string {
	set := map[string]bool{}
	var walk func(*Expr)
	walk = func(x *Expr) {
		if x.Kind == Sym {
			set[x.Name] = true
		}
		for _, k := range x.Kids {
			walk(k)
		}
	}
	walk(e)
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// HasWildcard reports whether '_' occurs in the expression.
func (e *Expr) HasWildcard() bool {
	if e.Kind == Wild {
		return true
	}
	for _, k := range e.Kids {
		if k.HasWildcard() {
			return true
		}
	}
	return false
}

// Size returns the number of AST nodes.
func (e *Expr) Size() int {
	n := 1
	for _, k := range e.Kids {
		n += k.Size()
	}
	return n
}

// String renders the expression in the paper's syntax with '.' for
// concatenation, '∪' for union and postfix '*'.
func (e *Expr) String() string {
	var buf [64]byte
	return string(e.AppendTo(buf[:0]))
}

// AppendTo appends the String rendering of e to b and returns the
// extended buffer.
func (e *Expr) AppendTo(b []byte) []byte { return e.appendTo(b, 0) }

// precedence: 0 union, 1 concat, 2 atom/star.
func (e *Expr) appendTo(b []byte, prec int) []byte {
	switch e.Kind {
	case Eps:
		b = append(b, "ε"...)
	case Sym:
		b = append(b, e.Name...)
	case Wild:
		b = append(b, "_"...)
	case Cat:
		if prec > 1 {
			b = append(b, '(')
		}
		for i, k := range e.Kids {
			if i > 0 {
				b = append(b, '.')
			}
			b = k.appendTo(b, 2)
		}
		if prec > 1 {
			b = append(b, ')')
		}
	case Alt:
		if prec > 0 {
			b = append(b, '(')
		}
		for i, k := range e.Kids {
			if i > 0 {
				b = append(b, " ∪ "...)
			}
			b = k.appendTo(b, 1)
		}
		if prec > 0 {
			b = append(b, ')')
		}
	case Star:
		switch e.Kids[0].Kind {
		case Eps, Sym, Wild:
			b = e.Kids[0].appendTo(b, 2)
		default:
			b = append(b, '(')
			b = e.Kids[0].appendTo(b, 0)
			b = append(b, ')')
		}
		b = append(b, '*')
	}
	return b
}

// Equal reports structural equality.
func (e *Expr) Equal(o *Expr) bool {
	if e == o {
		return true
	}
	if e == nil || o == nil || e.Kind != o.Kind || e.Name != o.Name || len(e.Kids) != len(o.Kids) {
		return false
	}
	for i := range e.Kids {
		if !e.Kids[i].Equal(o.Kids[i]) {
			return false
		}
	}
	return true
}

// Parse parses the paper's path-expression syntax. Both '∪' and '|'
// denote union; 'ε' denotes the empty path; '_' the wildcard.
//
//	r._*.(student ∪ prof).record
//
// The parser indexes the source's bytes, so element type names are
// slices of src. Error offsets count runes, not bytes.
func Parse(src string) (*Expr, error) {
	p := &rparser{src: src}
	p.kids = p.kidsBuf[:0]
	p.skipSpace()
	e, err := p.parseAlt()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if !p.eof() {
		return nil, p.errf("trailing input")
	}
	return e, nil
}

// MustParse is Parse for known-good literals; it panics on error.
func MustParse(src string) *Expr {
	e, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("pathre.MustParse(%q): %v", src, err))
	}
	return e
}

// The multi-byte operators of the syntax.
const (
	unionOp   = "∪"
	epsilonOp = "ε"
)

// rparser is a recursive-descent parser over the source bytes. pos is
// a byte offset that only ever stops on a rune boundary: everything it
// consumes is ASCII or one of the two multi-byte operators.
type rparser struct {
	src string
	pos int
	// kids is the operand stack that parseAlt and parseCat share; each
	// level pushes its operands above the enclosing level's and pops
	// them once join has copied them out.
	kids    []*Expr
	kidsBuf [8]*Expr
	// nodes and lists are the slabs the expression's nodes and operand
	// lists are cut from.
	nodes []Expr
	lists []*Expr
}

// slabSize is the length of a fresh slab. An expression has one name
// more than it has operators ('.', '|', '∪', '*', '('), and at most one
// operator node per operator, so a slab of operators plus two nodes or
// operands usually holds the whole expression; if not, the next slab
// covers the rest at one per two bytes, plus two.
func (p *rparser) slabSize() int {
	if p.nodes != nil || p.lists != nil {
		return (len(p.src)-p.pos)/2 + 2
	}
	ops := 0
	for i := p.pos; i < len(p.src); i++ {
		switch p.src[i] {
		case '.', '|', '*', '(', unionOp[0]:
			ops++
		}
	}
	return ops + 2
}

// node returns a new expression node, cut from the slab (a nil p
// allocates it on its own).
func (p *rparser) node(kind Kind, name string, kids []*Expr) *Expr {
	if p == nil {
		return &Expr{Kind: kind, Name: name, Kids: kids}
	}
	if len(p.nodes) == cap(p.nodes) {
		p.nodes = make([]Expr, 0, p.slabSize())
	}
	p.nodes = append(p.nodes, Expr{Kind: kind, Name: name, Kids: kids})
	return &p.nodes[len(p.nodes)-1]
}

// list returns an empty operand list with room for exactly n operands,
// cut from the slab (a nil p allocates it on its own).
func (p *rparser) list(n int) []*Expr {
	if p == nil {
		return make([]*Expr, 0, n)
	}
	if cap(p.lists)-len(p.lists) < n {
		p.lists = make([]*Expr, 0, max(n, p.slabSize()))
	}
	at := len(p.lists)
	p.lists = p.lists[:at+n]
	return p.lists[at : at : at+n]
}

func (p *rparser) eof() bool  { return p.pos >= len(p.src) }
func (p *rparser) peek() byte { return p.src[p.pos] }

// at reports whether the unconsumed input starts with op.
func (p *rparser) at(op string) bool { return strings.HasPrefix(p.src[p.pos:], op) }

// errf reports an error at the current position, counted in runes and
// quoting the source with invalid UTF-8 shown as U+FFFD.
func (p *rparser) errf(format string, args ...any) error {
	return fmt.Errorf("path expression %q at offset %d: %s",
		string([]rune(p.src)), utf8.RuneCountInString(p.src[:p.pos]), fmt.Sprintf(format, args...))
}

func (p *rparser) skipSpace() {
	for !p.eof() && (p.peek() == ' ' || p.peek() == '\t' || p.peek() == '\n' || p.peek() == '\r') {
		p.pos++
	}
}

func (p *rparser) parseAlt() (*Expr, error) {
	first, err := p.parseCat()
	if err != nil {
		return nil, err
	}
	base := len(p.kids)
	p.kids = append(p.kids, first)
	for {
		p.skipSpace()
		if p.eof() {
			break
		}
		if p.peek() == '|' {
			p.pos++
		} else if p.at(unionOp) {
			p.pos += len(unionOp)
		} else {
			break
		}
		next, err := p.parseCat()
		if err != nil {
			return nil, err
		}
		p.kids = append(p.kids, next)
	}
	e := join(p, Alt, p.kids[base:])
	p.kids = p.kids[:base]
	return e, nil
}

func (p *rparser) parseCat() (*Expr, error) {
	first, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	base := len(p.kids)
	p.kids = append(p.kids, first)
	for {
		p.skipSpace()
		if p.eof() || p.peek() != '.' {
			break
		}
		p.pos++
		next, err := p.parsePostfix()
		if err != nil {
			return nil, err
		}
		p.kids = append(p.kids, next)
	}
	e := join(p, Cat, p.kids[base:])
	p.kids = p.kids[:base]
	return e, nil
}

func (p *rparser) parsePostfix() (*Expr, error) {
	e, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		if !p.eof() && p.peek() == '*' {
			p.pos++
			e = closure(p, e)
			continue
		}
		return e, nil
	}
}

func (p *rparser) parseAtom() (*Expr, error) {
	p.skipSpace()
	if p.eof() {
		return nil, p.errf("expected path atom")
	}
	if p.peek() == '(' {
		p.pos++
		e, err := p.parseAlt()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.eof() || p.peek() != ')' {
			return nil, p.errf("expected ')'")
		}
		p.pos++
		return e, nil
	}
	if p.at(epsilonOp) {
		p.pos += len(epsilonOp)
		return p.node(Eps, "", nil), nil
	}
	start := p.pos
	for !p.eof() && isNameByte(p.peek()) {
		p.pos++
	}
	if p.pos == start {
		return nil, p.errf("expected name, '_', 'ε' or '('")
	}
	// A solitary '_' is the wildcard; '_' inside a longer token is an
	// ordinary name character (as in author_info from Figure 2).
	name := p.src[start:p.pos]
	if name == "_" {
		return p.node(Wild, "", nil), nil
	}
	return p.node(Sym, name, nil), nil
}

// isNameByte reports whether c may occur in an element type name.
// Names are ASCII, so a byte of a multi-byte rune never qualifies.
func isNameByte(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return true
	case c == '-' || c == '$' || c == ':' || c == '_':
		return true
	}
	return false
}

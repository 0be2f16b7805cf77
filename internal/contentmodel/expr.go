// Package contentmodel implements the "horizontal" regular expressions
// used as DTD element type definitions (Definition 2.1 of the paper):
//
//	α ::= S | τ' | ε | α|α | α,α | α*
//
// where S is the string (PCDATA) type, τ' an element type name, ε the
// empty word, and "|", "," and "*" denote union, concatenation and the
// Kleene closure. The package provides an AST, a parser for the usual
// DTD surface syntax ("(a, (b|c)*, #PCDATA)"), Brzozowski-derivative
// matching of label sequences, and structural analyses (alphabet,
// nullability, star-freeness, minimal words, language finiteness,
// random sampling).
package contentmodel

import (
	"sort"
)

// Kind discriminates the AST node variants of a content model.
type Kind int

// The six content-model AST node kinds.
const (
	// Empty is the ε expression matching only the empty word.
	Empty Kind = iota
	// Text is the S (PCDATA) leaf matching a single text node.
	Text
	// Name is a reference to an element type τ'.
	Name
	// Seq is an n-ary concatenation α1, α2, ..., αn (n ≥ 2).
	Seq
	// Choice is an n-ary union α1 | α2 | ... | αn (n ≥ 2).
	Choice
	// Star is the Kleene closure α* of its single child.
	Star
)

// TextSymbol is the label under which text (PCDATA) children appear in
// the word of child labels matched against a content model.
const TextSymbol = "#PCDATA"

// Expr is a node of a content-model regular expression. Expressions are
// immutable after construction; all combinators return fresh nodes and
// never alias caller-owned slices.
type Expr struct {
	Kind Kind
	// Ref is the referenced element type name when Kind == Name.
	Ref string
	// Kids holds the operands of Seq and Choice (len ≥ 2) and the single
	// operand of Star (len == 1).
	Kids []*Expr
}

// Eps returns the ε expression.
func Eps() *Expr { return &Expr{Kind: Empty} }

// PCData returns the S (text) expression.
func PCData() *Expr { return &Expr{Kind: Text} }

// Ref returns an element-type reference expression.
func Ref(name string) *Expr { return &Expr{Kind: Name, Ref: name} }

// NewSeq returns the concatenation of the given expressions, flattening
// nested sequences and eliding ε operands. An empty argument list yields
// ε; a single operand is returned unchanged. It does not retain xs.
func NewSeq(xs ...*Expr) *Expr { return join(nil, Seq, xs) }

// NewChoice returns the union of the given expressions, flattening
// nested unions. An empty argument list yields ε; a single operand is
// returned unchanged. It does not retain xs.
func NewChoice(xs ...*Expr) *Expr { return join(nil, Choice, xs) }

// join is NewSeq (kind Seq) and NewChoice (kind Choice). It takes the
// node and its operand list from p's slabs, or allocates them when p is
// nil.
func join(p *parser, kind Kind, xs []*Expr) *Expr {
	// ε is the unit of concatenation.
	skip := func(x *Expr) bool { return kind == Seq && x.Kind == Empty }
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
		return p.node(Empty, "", nil)
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

// NewStar returns the Kleene closure of x. Stars of ε and of stars are
// simplified away.
func NewStar(x *Expr) *Expr { return star(nil, x) }

// Plus returns x+ desugared as (x, x*). Note that the result contains a
// Kleene star, so "+" is unavailable in no-star DTDs.
func Plus(x *Expr) *Expr { return plus(nil, x) }

// Opt returns x? desugared as (x | ε).
func Opt(x *Expr) *Expr { return opt(nil, x) }

// star, plus and opt are NewStar, Plus and Opt, taking their nodes and
// operand lists from p's slabs, or allocating them when p is nil.
func star(p *parser, x *Expr) *Expr {
	switch x.Kind {
	case Empty:
		return p.node(Empty, "", nil)
	case Star:
		return x
	}
	return p.node(Star, "", append(p.list(1), x))
}

func plus(p *parser, x *Expr) *Expr { return join(p, Seq, []*Expr{x, star(p, x)}) }

func opt(p *parser, x *Expr) *Expr {
	if x.Nullable() {
		return x
	}
	return p.node(Choice, "", append(p.list(2), x, p.node(Empty, "", nil)))
}

// Nullable reports whether the expression matches the empty word.
func (e *Expr) Nullable() bool {
	switch e.Kind {
	case Empty, Star:
		return true
	case Text, Name:
		return false
	case Seq:
		for _, k := range e.Kids {
			if !k.Nullable() {
				return false
			}
		}
		return true
	case Choice:
		for _, k := range e.Kids {
			if k.Nullable() {
				return true
			}
		}
		return false
	}
	return false
}

// HasStar reports whether any Kleene star occurs in the expression. A
// DTD is "no-star" (Section 2) when no element type definition has one.
func (e *Expr) HasStar() bool {
	if e.Kind == Star {
		return true
	}
	for _, k := range e.Kids {
		if k.HasStar() {
			return true
		}
	}
	return false
}

// HasText reports whether the S (PCDATA) leaf occurs in the expression.
func (e *Expr) HasText() bool {
	if e.Kind == Text {
		return true
	}
	for _, k := range e.Kids {
		if k.HasText() {
			return true
		}
	}
	return false
}

// Alphabet returns the sorted set of element type names referenced by
// the expression. The text symbol is not included.
func (e *Expr) Alphabet() []string {
	set := map[string]bool{}
	e.alphabet(set)
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (e *Expr) alphabet(set map[string]bool) {
	if e.Kind == Name {
		set[e.Ref] = true
	}
	for _, k := range e.Kids {
		k.alphabet(set)
	}
}

// Mentions reports whether the element type name occurs in the
// expression.
func (e *Expr) Mentions(name string) bool {
	if e.Kind == Name && e.Ref == name {
		return true
	}
	for _, k := range e.Kids {
		if k.Mentions(name) {
			return true
		}
	}
	return false
}

// Size returns the number of AST nodes, used as the instance-size
// measure |P(τ)| in complexity accounting.
func (e *Expr) Size() int {
	n := 1
	for _, k := range e.Kids {
		n += k.Size()
	}
	return n
}

// Finite reports whether the language of the expression is finite, i.e.
// whether every star's body can only match ε. Since stars of ε are
// simplified away on construction, this means "no reachable star that
// can consume a symbol".
func (e *Expr) Finite() bool {
	switch e.Kind {
	case Star:
		return e.Kids[0].maxLenZero()
	case Seq, Choice:
		for _, k := range e.Kids {
			if !k.Finite() {
				return false
			}
		}
	}
	return true
}

// maxLenZero reports whether the expression matches only the empty word.
func (e *Expr) maxLenZero() bool {
	switch e.Kind {
	case Empty:
		return true
	case Text, Name:
		return false
	case Star:
		return e.Kids[0].maxLenZero()
	default:
		for _, k := range e.Kids {
			if !k.maxLenZero() {
				return false
			}
		}
		return true
	}
}

// MinLen returns the length of the shortest word in the language.
func (e *Expr) MinLen() int {
	switch e.Kind {
	case Empty, Star:
		return 0
	case Text, Name:
		return 1
	case Seq:
		n := 0
		for _, k := range e.Kids {
			n += k.MinLen()
		}
		return n
	case Choice:
		best := -1
		for _, k := range e.Kids {
			if m := k.MinLen(); best < 0 || m < best {
				best = m
			}
		}
		return best
	}
	return 0
}

// MinCount returns the minimum number of occurrences of the given
// element type in any word of the language. It is the per-child lower
// bound used by the cardinality encodings.
func (e *Expr) MinCount(name string) int {
	switch e.Kind {
	case Empty, Text, Star:
		return 0
	case Name:
		if e.Ref == name {
			return 1
		}
		return 0
	case Seq:
		n := 0
		for _, k := range e.Kids {
			n += k.MinCount(name)
		}
		return n
	case Choice:
		best := -1
		for _, k := range e.Kids {
			if m := k.MinCount(name); best < 0 || m < best {
				best = m
			}
		}
		return best
	}
	return 0
}

// String renders the expression in DTD surface syntax: "EMPTY" for ε,
// "#PCDATA" for S, comma-separated sequences, "|"-separated choices and
// a postfix "*" for stars, with parentheses as needed.
func (e *Expr) String() string {
	var buf [64]byte
	return string(e.AppendTo(buf[:0]))
}

// AppendTo appends the String rendering of e to b and returns the
// extended buffer.
func (e *Expr) AppendTo(b []byte) []byte { return e.appendTo(b, 0) }

// precedence levels: 0 choice, 1 seq, 2 atom/star.
func (e *Expr) appendTo(b []byte, prec int) []byte {
	switch e.Kind {
	case Empty:
		b = append(b, "EMPTY"...)
	case Text:
		b = append(b, TextSymbol...)
	case Name:
		b = append(b, e.Ref...)
	case Seq:
		if prec > 1 {
			b = append(b, '(')
		}
		for i, k := range e.Kids {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = k.appendTo(b, 2)
		}
		if prec > 1 {
			b = append(b, ')')
		}
	case Choice:
		if prec > 0 {
			b = append(b, '(')
		}
		for i, k := range e.Kids {
			if i > 0 {
				b = append(b, " | "...)
			}
			// DTD syntax forbids mixing ',' and '|' at one level, so
			// sequence operands of a choice are always parenthesized.
			b = k.appendTo(b, 2)
		}
		if prec > 0 {
			b = append(b, ')')
		}
	case Star:
		// The star operand must parenthesize unless it is atomic.
		switch e.Kids[0].Kind {
		case Empty, Text, Name:
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

// Equal reports structural equality of two expressions.
func (e *Expr) Equal(o *Expr) bool {
	if e == o {
		return true
	}
	if e == nil || o == nil || e.Kind != o.Kind || e.Ref != o.Ref || len(e.Kids) != len(o.Kids) {
		return false
	}
	for i := range e.Kids {
		if !e.Kids[i].Equal(o.Kids[i]) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the expression.
func (e *Expr) Clone() *Expr {
	if e == nil {
		return nil
	}
	c := &Expr{Kind: e.Kind, Ref: e.Ref}
	if len(e.Kids) > 0 {
		c.Kids = make([]*Expr, len(e.Kids))
		for i, k := range e.Kids {
			c.Kids[i] = k.Clone()
		}
	}
	return c
}

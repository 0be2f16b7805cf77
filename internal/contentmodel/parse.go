package contentmodel

import (
	"fmt"
	"strings"
)

// Parse parses a content model in DTD surface syntax. Accepted forms:
//
//	EMPTY                      the ε expression
//	#PCDATA                    the S (text) type
//	name                       an element type reference
//	(α, α, ...)                concatenation
//	(α | α | ...)              union
//	α*  α+  α?                 closure, one-or-more, optional
//
// "+" and "?" are desugared into star and union, so "+" makes a DTD
// starred for the purposes of the no-star restriction.
func Parse(src string) (*Expr, error) {
	var p Parser
	return p.Parse(src)
}

// Parser parses content models like Parse, drawing the names, EMPTY,
// #PCDATA, sequence and choice nodes of the expressions it returns, and
// their operand lists, from shared slabs, so that the many small models
// of one DTD allocate in bulk. The zero
// value is ready to use. A Parser is not safe for concurrent use.
type Parser struct {
	p parser
}

// Parse parses one content model; see the package-level Parse.
func (cp *Parser) Parse(src string) (*Expr, error) {
	p := &cp.p
	p.src, p.pos = src, 0
	p.skipSpace()
	if p.eof() {
		return nil, p.errf("empty content model")
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if !p.eof() {
		return nil, p.errf("trailing input %q", p.rest())
	}
	return e, nil
}

// MustParse is Parse for known-good literals; it panics on error.
func MustParse(src string) *Expr {
	e, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("contentmodel.MustParse(%q): %v", src, err))
	}
	return e
}

type parser struct {
	src string
	pos int
	// kids is the operand stack nested parseExpr calls share; each
	// level pushes above its caller's operands and pops its own once
	// join has copied them out.
	kids []*Expr
	// nodes and lists are the slabs the next expression nodes and
	// operand lists are cut from.
	nodes []Expr
	lists []*Expr
}

// slabSize is the length of a fresh slab that replaces one of length
// last: one node or operand per three bytes of unparsed source, the
// most the rest of this model can need once a name and its separator
// take two, plus one — or, for a parser that has filled slabs before,
// twice the last, up to 64. Leftovers serve the parser's next model.
func (p *parser) slabSize(last int) int {
	return min(max((len(p.src)-p.pos)/3+1, 2*last), 64)
}

// node returns a new expression node, cut from the slab (a nil p
// allocates it on its own).
func (p *parser) node(kind Kind, ref string, kids []*Expr) *Expr {
	if p == nil {
		return &Expr{Kind: kind, Ref: ref, Kids: kids}
	}
	if len(p.nodes) == cap(p.nodes) {
		p.nodes = make([]Expr, 0, p.slabSize(cap(p.nodes)))
	}
	p.nodes = append(p.nodes, Expr{Kind: kind, Ref: ref, Kids: kids})
	return &p.nodes[len(p.nodes)-1]
}

// list returns an empty operand list with room for exactly n operands,
// cut from the slab (a nil p allocates it on its own).
func (p *parser) list(n int) []*Expr {
	if p == nil || n > 64 {
		return make([]*Expr, 0, n)
	}
	if cap(p.lists)-len(p.lists) < n {
		p.lists = make([]*Expr, 0, max(n, p.slabSize(cap(p.lists))))
	}
	at := len(p.lists)
	p.lists = p.lists[:at+n]
	return p.lists[at : at : at+n]
}

func (p *parser) eof() bool    { return p.pos >= len(p.src) }
func (p *parser) peek() byte   { return p.src[p.pos] }
func (p *parser) rest() string { return p.src[p.pos:] }
func (p *parser) advance()     { p.pos++ }
func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("content model %q at offset %d: %s", p.src, p.pos, fmt.Sprintf(format, args...))
}

// skipSpace skips the bytes that are white space when read as
// Latin-1 runes, as unicode.IsSpace judges them.
func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		switch c := p.src[p.pos]; {
		case c == ' ', '\t' <= c && c <= '\r', c == 0x85, c == 0xA0:
			p.pos++
		default:
			return
		}
	}
}

// parseExpr parses a full expression at the current position: either a
// single postfixed atom, or a parenthesized sequence/choice. Bare
// top-level sequences and choices without parentheses are also accepted
// ("a, b" / "a | b") for convenience in the textual constraint format.
func (p *parser) parseExpr() (*Expr, error) {
	first, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.eof() || (p.peek() != ',' && p.peek() != '|') {
		return first, nil
	}
	sep := p.peek()
	base := len(p.kids)
	p.kids = append(p.kids, first)
	for !p.eof() && p.peek() == sep {
		p.advance()
		next, err := p.parsePostfix()
		if err != nil {
			return nil, err
		}
		p.kids = append(p.kids, next)
		p.skipSpace()
	}
	if !p.eof() && (p.peek() == ',' || p.peek() == '|') {
		return nil, p.errf("mixed ',' and '|' require parentheses")
	}
	kids := p.kids[base:]
	p.kids = p.kids[:base]
	if sep == ',' {
		return join(p, Seq, kids), nil
	}
	return join(p, Choice, kids), nil
}

// parsePostfix parses an atom followed by any run of *, +, ? postfixes.
func (p *parser) parsePostfix() (*Expr, error) {
	e, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		if p.eof() {
			return e, nil
		}
		switch p.peek() {
		case '*':
			p.advance()
			e = star(p, e)
		case '+':
			p.advance()
			e = plus(p, e)
		case '?':
			p.advance()
			e = opt(p, e)
		default:
			return e, nil
		}
	}
}

func (p *parser) parseAtom() (*Expr, error) {
	p.skipSpace()
	if p.eof() {
		return nil, p.errf("expected expression")
	}
	if p.peek() == '(' {
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.eof() || p.peek() != ')' {
			return nil, p.errf("expected ')'")
		}
		p.advance()
		return e, nil
	}
	name := p.parseName()
	switch {
	case name == "":
		return nil, p.errf("expected name, '(' , EMPTY or #PCDATA")
	case strings.EqualFold(name, "EMPTY"):
		return p.node(Empty, "", nil), nil
	case name == TextSymbol:
		return p.node(Text, "", nil), nil
	case name[0] == '#':
		return nil, p.errf("unknown keyword %q", name)
	}
	return p.node(Name, name, nil), nil
}

// parseName consumes an XML-ish name: letters, digits, and the
// punctuation XML allows in names (.-_:), optionally prefixed by '#'
// for the #PCDATA keyword.
func (p *parser) parseName() string {
	start := p.pos
	if !p.eof() && p.peek() == '#' {
		p.advance()
	}
	for !p.eof() && isNameByte(p.peek()) {
		p.advance()
	}
	return p.src[start:p.pos]
}

func isNameByte(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return true
	case c == '.' || c == '-' || c == '_' || c == ':':
		return true
	}
	return false
}

package pathre

// The rune-slice path-expression parser that Parse replaced, kept
// verbatim (renamed) as the reference oracle of the differential tests
// in parse_test.go.

import "fmt"

// refParse parses the paper's path-expression syntax over a rune
// slice. Both '∪' and '|' denote union; 'ε' denotes the empty path;
// '_' the wildcard.
func refParse(src string) (*Expr, error) {
	p := &refParser{src: []rune(src)}
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

type refParser struct {
	src []rune
	pos int
}

func (p *refParser) eof() bool  { return p.pos >= len(p.src) }
func (p *refParser) peek() rune { return p.src[p.pos] }
func (p *refParser) errf(format string, args ...any) error {
	return fmt.Errorf("path expression %q at offset %d: %s", string(p.src), p.pos, fmt.Sprintf(format, args...))
}

func (p *refParser) skipSpace() {
	for !p.eof() && (p.peek() == ' ' || p.peek() == '\t' || p.peek() == '\n' || p.peek() == '\r') {
		p.pos++
	}
}

func (p *refParser) parseAlt() (*Expr, error) {
	first, err := p.parseCat()
	if err != nil {
		return nil, err
	}
	kids := []*Expr{first}
	for {
		p.skipSpace()
		if p.eof() || (p.peek() != '∪' && p.peek() != '|') {
			break
		}
		p.pos++
		next, err := p.parseCat()
		if err != nil {
			return nil, err
		}
		kids = append(kids, next)
	}
	return Union(kids...), nil
}

func (p *refParser) parseCat() (*Expr, error) {
	first, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	kids := []*Expr{first}
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
		kids = append(kids, next)
	}
	return Concat(kids...), nil
}

func (p *refParser) parsePostfix() (*Expr, error) {
	e, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		if !p.eof() && p.peek() == '*' {
			p.pos++
			e = Closure(e)
			continue
		}
		return e, nil
	}
}

func (p *refParser) parseAtom() (*Expr, error) {
	p.skipSpace()
	if p.eof() {
		return nil, p.errf("expected path atom")
	}
	switch p.peek() {
	case '(':
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
	case 'ε':
		p.pos++
		return Epsilon(), nil
	}
	start := p.pos
	for !p.eof() && refIsNameRune(p.peek()) {
		p.pos++
	}
	if p.pos == start {
		return nil, p.errf("expected name, '_', 'ε' or '('")
	}
	// A solitary '_' is the wildcard; '_' inside a longer token is an
	// ordinary name character (as in author_info from Figure 2).
	name := string(p.src[start:p.pos])
	if name == "_" {
		return Wildcard(), nil
	}
	return Symbol(name), nil
}

func refIsNameRune(c rune) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return true
	case c == '-' || c == '$' || c == ':' || c == '_':
		return true
	}
	return false
}

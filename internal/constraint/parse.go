package constraint

import (
	"fmt"
	"strings"

	"repro/internal/pathre"
)

// Constraint is either a Key or an Inclusion.
type Constraint interface {
	String() string
	constraint()
}

func (Key) constraint()       {}
func (Inclusion) constraint() {}

// Parse parses one constraint in the paper's notation:
//
//	country.name -> country                        absolute unary key
//	person[first,last] -> person                   multi-attribute key
//	takenBy.sid ⊆ record.id                        absolute inclusion
//	r._*.student.record.id -> r._*.student.record  regular key
//	r._*.dbLab.acc.num ⊆ r._*.cs434.takenBy.sid    regular inclusion
//	country(province.name -> province)             relative key
//	country(capital.inProvince ⊆ province.name)    relative inclusion
//
// "<=" is accepted as an ASCII alternative for "⊆".
func Parse(line string) (Constraint, error) {
	p, err := parse(line, nil)
	switch {
	case err != nil:
		return nil, err
	case p.isKey:
		return p.key, nil
	}
	return p.incl, nil
}

// parsed is one parsed constraint, a key or an inclusion, unboxed.
type parsed struct {
	isKey bool
	key   Key
	incl  Inclusion
}

// parse is Parse without boxing the result in an interface. Its
// one-attribute lists come from attrs.
func parse(line string, attrs *attrSlab) (parsed, error) {
	line = strings.TrimSpace(line)
	ctx, body, ok := splitRelative(line)
	if !ok {
		return parsePlain(line, attrs)
	}
	p, err := parsePlain(body, attrs)
	if err != nil {
		return parsed{}, fmt.Errorf("in %q: %w", line, err)
	}
	if p.isKey {
		if p.key.Target.Path != nil {
			return parsed{}, fmt.Errorf("constraint %q: relative keys use element types, not paths", line)
		}
		if !p.key.Target.Unary() {
			return parsed{}, fmt.Errorf("constraint %q: relative keys must be unary (Section 4)", line)
		}
		p.key.Context = ctx
		return p, nil
	}
	if p.incl.From.Path != nil || p.incl.To.Path != nil {
		return parsed{}, fmt.Errorf("constraint %q: relative inclusions use element types, not paths", line)
	}
	if !p.incl.From.Unary() || !p.incl.To.Unary() {
		return parsed{}, fmt.Errorf("constraint %q: relative inclusions must be unary (Section 4)", line)
	}
	p.incl.Context = ctx
	return p, nil
}

// MustParse is Parse for known-good literals; it panics on error.
func MustParse(line string) Constraint {
	c, err := Parse(line)
	if err != nil {
		panic(fmt.Sprintf("constraint.MustParse(%q): %v", line, err))
	}
	return c
}

// ParseSet parses a newline-separated list of constraints. Empty lines
// and lines starting with '#' or "//" are skipped.
func ParseSet(src string) (*Set, error) {
	// Size each list once, at its first constraint: every inclusion
	// separator starts an inclusion, and every other line is at most
	// one key.
	lines := strings.Count(src, "\n") + 1
	incls := min(strings.Count(src, "⊆")+strings.Count(src, "<="), lines)
	set := &Set{}
	// A line holds at most two unary targets.
	attrs := make(attrSlab, 0, 2*lines)
	for lineNo, rest := 0, src; rest != ""; lineNo++ {
		raw := rest
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			raw, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		line := strings.TrimSpace(raw)
		if line == "" || line[0] == '#' || strings.HasPrefix(line, "//") {
			continue
		}
		p, err := parse(line, &attrs)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
		if p.isKey {
			if set.Keys == nil {
				set.Keys = make([]Key, 0, lines-incls)
			}
			set.AddKey(p.key)
		} else {
			if set.Incls == nil {
				set.Incls = make([]Inclusion, 0, incls)
			}
			set.AddInclusion(p.incl)
		}
	}
	return set, nil
}

// MustParseSet is ParseSet for known-good literals; it panics on error.
func MustParseSet(src string) *Set {
	s, err := ParseSet(src)
	if err != nil {
		panic(fmt.Sprintf("constraint.MustParseSet: %v", err))
	}
	return s
}

// splitRelative recognizes "ctx( body )" where ctx is a bare name and
// the parentheses wrap the entire remainder.
func splitRelative(line string) (ctx, body string, ok bool) {
	open := strings.IndexByte(line, '(')
	if open <= 0 || !strings.HasSuffix(line, ")") {
		return "", "", false
	}
	ctx = strings.TrimSpace(line[:open])
	if !isBareName(ctx) {
		return "", "", false
	}
	inner := line[open+1 : len(line)-1]
	// The parentheses must balance over the whole body.
	depth := 0
	for i := 0; i < len(inner); i++ {
		switch inner[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth < 0 {
				return "", "", false
			}
		}
	}
	if depth != 0 {
		return "", "", false
	}
	return ctx, strings.TrimSpace(inner), true
}

func isBareName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isNameByte(s[i]) {
			return false
		}
	}
	return true
}

// isNameByte reports whether c may occur in an element type or
// attribute name. Names are ASCII.
func isNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '_' || c == '-' || c == '$' || c == ':'
}

func parsePlain(body string, attrs *attrSlab) (parsed, error) {
	lhs, rhs, sep := splitTop(body)
	switch sep {
	case inclusionSep:
		from, err := parseTarget(lhs, attrs)
		if err != nil {
			return parsed{}, err
		}
		to, err := parseTarget(rhs, attrs)
		if err != nil {
			return parsed{}, err
		}
		return parsed{incl: Inclusion{From: from, To: to}}, nil
	case keySep:
		target, err := parseTarget(lhs, attrs)
		if err != nil {
			return parsed{}, err
		}
		if err := checkKeyRHS(target, rhs); err != nil {
			return parsed{}, err
		}
		return parsed{isKey: true, key: Key{Target: target}}, nil
	}
	return parsed{}, fmt.Errorf("constraint %q: expected '->' (key) or '⊆' (inclusion)", body)
}

// The separator kinds splitTop finds.
const (
	noSep = iota
	inclusionSep
	keySep
)

// splitTop splits a constraint body at its separator in one scan of
// the bytes: at the first inclusion separator ("⊆" or "<=") at nesting
// depth zero if there is one, otherwise at the first key separator
// ("->" or "→") at depth zero. Both halves are trimmed.
func splitTop(s string) (lhs, rhs string, sep int) {
	depth := 0
	key, keyLen := -1, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		}
		if depth != 0 {
			continue
		}
		switch s[i] {
		case '<':
			if strings.HasPrefix(s[i+1:], "=") {
				return strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+len("<="):]), inclusionSep
			}
		case '-':
			if key < 0 && strings.HasPrefix(s[i+1:], ">") {
				key, keyLen = i, len("->")
			}
		case "⊆"[0]: // the lead byte "→" shares
			if strings.HasPrefix(s[i:], "⊆") {
				return strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+len("⊆"):]), inclusionSep
			}
			if key < 0 && strings.HasPrefix(s[i:], "→") {
				key, keyLen = i, len("→")
			}
		}
	}
	if key < 0 {
		return "", "", noSep
	}
	return strings.TrimSpace(s[:key]), strings.TrimSpace(s[key+keyLen:]), keySep
}

// parseTarget parses "τ[l1,...,lk]" or a dotted path ending in
// ".τ.attr". The common "τ.attr" form is split directly, without a
// path expression. One-attribute lists come from attrs.
func parseTarget(s string, attrs *attrSlab) (Target, error) {
	s = strings.TrimSpace(s)
	if open := strings.IndexByte(s, '['); open >= 0 {
		if !strings.HasSuffix(s, "]") {
			return Target{}, fmt.Errorf("target %q: unterminated '['", s)
		}
		typ := strings.TrimSpace(s[:open])
		if !isBareName(typ) {
			return Target{}, fmt.Errorf("target %q: multi-attribute targets need a bare element type", s)
		}
		list := s[open+1 : len(s)-1]
		attrs := make([]string, 0, strings.Count(list, ",")+1)
		for {
			a, rest, more := strings.Cut(list, ",")
			if a = strings.TrimSpace(a); a == "" {
				return Target{}, fmt.Errorf("target %q: empty attribute name", s)
			}
			if !isBareName(a) {
				return Target{}, fmt.Errorf("target %q: attribute %q is not a name", s, a)
			}
			attrs = append(attrs, a)
			if !more {
				break
			}
			list = rest
		}
		return Target{Type: typ, Attrs: attrs}, nil
	}
	if typ, attr, ok := strings.Cut(s, "."); ok && typ != "_" && attr != "_" && isBareName(typ) && isBareName(attr) {
		return Target{Type: typ, Attrs: attrs.one(attr)}, nil
	}
	expr, err := pathre.Parse(s)
	if err != nil {
		return Target{}, err
	}
	return decomposeTarget(expr, s, attrs)
}

// attrSlab cuts one-attribute lists out of one backing array. A nil
// *attrSlab allocates each list on its own.
type attrSlab []string

// one returns the list [a], capped so that appending to it copies.
func (s *attrSlab) one(a string) []string {
	if s == nil {
		return []string{a}
	}
	if len(*s) == cap(*s) {
		*s = make(attrSlab, 0, 16)
	}
	*s = append(*s, a)
	n := len(*s)
	return (*s)[n-1 : n : n]
}

// decomposeTarget splits a parsed path β.τ.l into (β, τ, l). A path of
// exactly two plain symbols is a type-based target (Path == nil).
func decomposeTarget(expr *pathre.Expr, src string, attrs *attrSlab) (Target, error) {
	if expr.Kind != pathre.Cat || len(expr.Kids) < 2 {
		return Target{}, fmt.Errorf("target %q: expected a path of the form β.τ.attr", src)
	}
	last := expr.Kids[len(expr.Kids)-1]
	prev := expr.Kids[len(expr.Kids)-2]
	if last.Kind != pathre.Sym {
		return Target{}, fmt.Errorf("target %q: the final path step must be an attribute name", src)
	}
	if prev.Kind != pathre.Sym {
		return Target{}, fmt.Errorf("target %q: the step before the attribute must be a named element type", src)
	}
	if len(expr.Kids) == 2 {
		return Target{Type: prev.Name, Attrs: attrs.one(last.Name)}, nil
	}
	beta := pathre.Concat(expr.Kids[:len(expr.Kids)-2]...)
	return Target{Path: beta, Type: prev.Name, Attrs: attrs.one(last.Name)}, nil
}

// checkKeyRHS verifies that the right-hand side of "target -> rhs"
// addresses the same nodes as the target: for a regular target, the
// path β.τ.
func checkKeyRHS(target Target, rhs string) error {
	if rhs == "" {
		return fmt.Errorf("key for %s: missing right-hand side", target)
	}
	if target.Path == nil {
		if rhs != target.Type {
			return fmt.Errorf("key %s -> %s: right-hand side must be %q", target, rhs, target.Type)
		}
		return nil
	}
	got, err := pathre.Parse(rhs)
	if err != nil {
		return fmt.Errorf("key %s -> %s: %w", target, rhs, err)
	}
	if !addressesNodes(got, target) {
		want := pathre.Concat(target.Path, pathre.Symbol(target.Type))
		return fmt.Errorf("key %s -> %s: right-hand side must be %s", target, rhs, want)
	}
	return nil
}

// addressesNodes reports whether got equals β.τ for the target's path β
// and type τ, without building β.τ.
func addressesNodes(got *pathre.Expr, target Target) bool {
	steps := []*pathre.Expr{target.Path}
	switch target.Path.Kind {
	case pathre.Eps:
		return got.Kind == pathre.Sym && got.Name == target.Type
	case pathre.Cat:
		steps = target.Path.Kids
	}
	if got.Kind != pathre.Cat || len(got.Kids) != len(steps)+1 {
		return false
	}
	for i, st := range steps {
		if !got.Kids[i].Equal(st) {
			return false
		}
	}
	last := got.Kids[len(steps)]
	return last.Kind == pathre.Sym && last.Name == target.Type
}

package constraint

// The constraint parser that Parse replaced, kept verbatim (renamed) as
// the reference oracle of the differential tests in parse_test.go. It
// still calls pathre.Parse, whose own rewrite pathre's differential
// test pins against that package's reference parser.

import (
	"fmt"
	"strings"

	"repro/internal/pathre"
)

// refParse parses one constraint in the paper's notation:
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
func refParse(line string) (Constraint, error) {
	line = strings.TrimSpace(line)
	if ctx, body, ok := refSplitRelative(line); ok {
		c, err := refParsePlain(body)
		if err != nil {
			return nil, fmt.Errorf("in %q: %w", line, err)
		}
		switch v := c.(type) {
		case Key:
			if v.Target.Path != nil {
				return nil, fmt.Errorf("constraint %q: relative keys use element types, not paths", line)
			}
			if !v.Target.Unary() {
				return nil, fmt.Errorf("constraint %q: relative keys must be unary (Section 4)", line)
			}
			v.Context = ctx
			return v, nil
		case Inclusion:
			if v.From.Path != nil || v.To.Path != nil {
				return nil, fmt.Errorf("constraint %q: relative inclusions use element types, not paths", line)
			}
			if !v.From.Unary() || !v.To.Unary() {
				return nil, fmt.Errorf("constraint %q: relative inclusions must be unary (Section 4)", line)
			}
			v.Context = ctx
			return v, nil
		}
	}
	return refParsePlain(line)
}

// refParseSet parses a newline-separated list of constraints. Empty lines
// and lines starting with '#' or "//" are skipped.
func refParseSet(src string) (*Set, error) {
	set := &Set{}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "//") {
			continue
		}
		c, err := refParse(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
		switch v := c.(type) {
		case Key:
			set.AddKey(v)
		case Inclusion:
			set.AddInclusion(v)
		}
	}
	return set, nil
}

// refSplitRelative recognizes "ctx( body )" where ctx is a bare name and
// the parentheses wrap the entire remainder.
func refSplitRelative(line string) (ctx, body string, ok bool) {
	open := strings.IndexByte(line, '(')
	if open <= 0 || !strings.HasSuffix(line, ")") {
		return "", "", false
	}
	ctx = strings.TrimSpace(line[:open])
	if !refIsBareName(ctx) {
		return "", "", false
	}
	inner := line[open+1 : len(line)-1]
	// The parentheses must balance over the whole body.
	depth := 0
	for _, r := range inner {
		switch r {
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

func refIsBareName(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		ok := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' ||
			r == '_' || r == '-' || r == '$' || r == ':'
		if !ok {
			return false
		}
	}
	return true
}

func refParsePlain(body string) (Constraint, error) {
	if lhs, rhs, ok := refSplitTop(body, "⊆", "<="); ok {
		from, err := refParseTarget(lhs)
		if err != nil {
			return nil, err
		}
		to, err := refParseTarget(rhs)
		if err != nil {
			return nil, err
		}
		return Inclusion{From: from, To: to}, nil
	}
	if lhs, rhs, ok := refSplitTop(body, "->", "→"); ok {
		target, err := refParseTarget(lhs)
		if err != nil {
			return nil, err
		}
		if err := refCheckKeyRHS(target, strings.TrimSpace(rhs)); err != nil {
			return nil, err
		}
		return Key{Target: target}, nil
	}
	return nil, fmt.Errorf("constraint %q: expected '->' (key) or '⊆' (inclusion)", body)
}

// refSplitTop splits on the first occurrence of either separator at
// nesting depth zero.
func refSplitTop(s string, seps ...string) (lhs, rhs string, ok bool) {
	depth := 0
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
		for _, sep := range seps {
			if strings.HasPrefix(s[i:], sep) {
				return strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+len(sep):]), true
			}
		}
	}
	return "", "", false
}

// refParseTarget parses "τ[l1,...,lk]" or a dotted path ending in
// ".τ.attr".
func refParseTarget(s string) (Target, error) {
	s = strings.TrimSpace(s)
	if open := strings.IndexByte(s, '['); open >= 0 {
		if !strings.HasSuffix(s, "]") {
			return Target{}, fmt.Errorf("target %q: unterminated '['", s)
		}
		typ := strings.TrimSpace(s[:open])
		if !refIsBareName(typ) {
			return Target{}, fmt.Errorf("target %q: multi-attribute targets need a bare element type", s)
		}
		var attrs []string
		for _, a := range strings.Split(s[open+1:len(s)-1], ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				return Target{}, fmt.Errorf("target %q: empty attribute name", s)
			}
			if !refIsBareName(a) {
				return Target{}, fmt.Errorf("target %q: attribute %q is not a name", s, a)
			}
			attrs = append(attrs, a)
		}
		return Target{Type: typ, Attrs: attrs}, nil
	}
	expr, err := pathre.Parse(s)
	if err != nil {
		return Target{}, err
	}
	return refDecomposeTarget(expr, s)
}

// refDecomposeTarget splits a parsed path β.τ.l into (β, τ, l). A path of
// exactly two plain symbols is a type-based target (Path == nil).
func refDecomposeTarget(expr *pathre.Expr, src string) (Target, error) {
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
		return Target{Type: prev.Name, Attrs: []string{last.Name}}, nil
	}
	beta := pathre.Concat(expr.Kids[:len(expr.Kids)-2]...)
	return Target{Path: beta, Type: prev.Name, Attrs: []string{last.Name}}, nil
}

// refCheckKeyRHS verifies that the right-hand side of "target -> rhs"
// addresses the same nodes as the target.
func refCheckKeyRHS(target Target, rhs string) error {
	if rhs == "" {
		return fmt.Errorf("key for %s: missing right-hand side", target)
	}
	if target.Path == nil {
		if rhs != target.Type {
			return fmt.Errorf("key %s -> %s: right-hand side must be %q", target, rhs, target.Type)
		}
		return nil
	}
	want := pathre.Concat(target.Path, pathre.Symbol(target.Type))
	got, err := pathre.Parse(rhs)
	if err != nil {
		return fmt.Errorf("key %s -> %s: %w", target, rhs, err)
	}
	if !got.Equal(want) {
		return fmt.Errorf("key %s -> %s: right-hand side must be %s", target, rhs, want)
	}
	return nil
}

// Package constraint implements the paper's XML integrity constraint
// dialects and their dynamic (document-level) semantics:
//
//   - absolute keys and foreign keys over element types, unary or
//     multi-attribute, optionally primary (Section 2: AC_{K,FK} and its
//     sub- and super-classes AC^{*,1}, AC^{*,*}, AC_{PK,FK});
//   - regular-path-expression keys and foreign keys (Section 3.2:
//     AC^{reg}_{K,FK});
//   - relative keys and foreign keys scoped to a context element type
//     (Section 4: RC_{K,FK}).
//
// A foreign key is, as in the paper, an inclusion constraint paired
// with a key on its right-hand side; Set.Validate enforces the pairing.
package constraint

import (
	"sort"

	"repro/internal/dtd"
	"repro/internal/pathre"
)

// Target addresses a set of attribute tuples: the X-values of τ nodes,
// optionally restricted to nodes reached by a path expression β (for
// regular constraints) and/or to descendants of a context node (for
// relative constraints, tracked on the enclosing constraint).
type Target struct {
	// Path is the β prefix of a regular constraint; nil for type-based
	// constraints, whose extent is all τ elements.
	Path *pathre.Expr
	// Type is the element type τ.
	Type string
	// Attrs is the attribute list X (length ≥ 1; length 1 for unary,
	// regular and relative constraints).
	Attrs []string
}

// Unary reports whether the target has a single attribute.
func (t Target) Unary() bool { return len(t.Attrs) == 1 }

// String renders the target in the paper's notation.
func (t Target) String() string {
	var buf [64]byte
	return string(t.appendTo(buf[:0]))
}

func (t Target) appendTo(b []byte) []byte {
	if t.Path != nil {
		b = t.Path.AppendTo(b)
		b = append(b, '.')
	}
	b = append(b, t.Type...)
	if len(t.Attrs) == 1 {
		b = append(b, '.')
		return append(b, t.Attrs[0]...)
	}
	b = append(b, '[')
	for i, a := range t.Attrs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, a...)
	}
	return append(b, ']')
}

// NodeString renders the target without its attributes (the right-hand
// side of a key).
func (t Target) NodeString() string {
	if t.Path != nil {
		return t.Path.String() + "." + t.Type
	}
	return t.Type
}

// Key is a key constraint: Target[X] → Target, optionally relative to
// a context type.
type Key struct {
	// Context is the context element type of a relative key; empty for
	// absolute (whole-document) keys.
	Context string
	Target  Target
}

// String renders the key in the paper's notation.
func (k Key) String() string {
	var buf [128]byte
	return string(k.AppendTo(buf[:0]))
}

// AppendTo appends the String rendering of k to b and returns the
// extended buffer.
func (k Key) AppendTo(b []byte) []byte {
	b = openContext(b, k.Context)
	b = k.Target.appendTo(b)
	b = append(b, " -> "...)
	if k.Target.Path != nil {
		b = k.Target.Path.AppendTo(b)
		b = append(b, '.')
	}
	b = append(b, k.Target.Type...)
	return closeContext(b, k.Context)
}

// openContext and closeContext wrap a relative constraint's body in
// its context type: ctx(body).
func openContext(b []byte, ctx string) []byte {
	if ctx != "" {
		b = append(b, ctx...)
		b = append(b, '(')
	}
	return b
}

func closeContext(b []byte, ctx string) []byte {
	if ctx != "" {
		b = append(b, ')')
	}
	return b
}

// Inclusion is an inclusion constraint From[X] ⊆ To[Y], optionally
// relative to a context type. Together with a key on To[Y] it forms a
// foreign key.
type Inclusion struct {
	Context  string
	From, To Target
}

// String renders the inclusion in the paper's notation.
func (c Inclusion) String() string {
	var buf [128]byte
	return string(c.AppendTo(buf[:0]))
}

// AppendTo appends the String rendering of c to b and returns the
// extended buffer.
func (c Inclusion) AppendTo(b []byte) []byte {
	b = openContext(b, c.Context)
	b = c.From.appendTo(b)
	b = append(b, " ⊆ "...)
	b = c.To.appendTo(b)
	return closeContext(b, c.Context)
}

// Set is a collection of constraints (a Σ).
type Set struct {
	Keys  []Key
	Incls []Inclusion
}

// Clone returns a shallow copy with fresh slices.
func (s *Set) Clone() *Set {
	return &Set{
		Keys:  append([]Key(nil), s.Keys...),
		Incls: append([]Inclusion(nil), s.Incls...),
	}
}

// Size returns the number of constraints, counting each foreign key
// (inclusion) as one constraint as in Section 3.3.
func (s *Set) Size() int { return len(s.Keys) + len(s.Incls) }

// String renders one constraint per line.
func (s *Set) String() string {
	var buf [512]byte
	b := buf[:0]
	for _, k := range s.Keys {
		b = append(k.AppendTo(b), '\n')
	}
	for _, c := range s.Incls {
		b = append(c.AppendTo(b), '\n')
	}
	return string(b)
}

// AddKey appends a key constraint.
func (s *Set) AddKey(k Key) *Set { s.Keys = append(s.Keys, k); return s }

// AddInclusion appends an inclusion constraint.
func (s *Set) AddInclusion(c Inclusion) *Set { s.Incls = append(s.Incls, c); return s }

// AddForeignKey appends an inclusion together with the key on its
// right-hand side (deduplicated), the paper's notion of foreign key.
func (s *Set) AddForeignKey(c Inclusion) *Set {
	s.AddInclusion(c)
	k := Key{Context: c.Context, Target: c.To}
	for _, have := range s.Keys {
		if have.Equal(k) {
			return s
		}
	}
	return s.AddKey(k)
}

// Equal reports whether two keys are identical constraints.
func (k Key) Equal(o Key) bool {
	return k.Context == o.Context && k.Target.Equal(o.Target)
}

// Equal reports whether two targets address the same attribute tuples.
func (t Target) Equal(o Target) bool {
	if t.Type != o.Type || len(t.Attrs) != len(o.Attrs) {
		return false
	}
	for i := range t.Attrs {
		if t.Attrs[i] != o.Attrs[i] {
			return false
		}
	}
	switch {
	case t.Path == nil && o.Path == nil:
		return true
	case t.Path == nil || o.Path == nil:
		return false
	}
	return t.Path.Equal(o.Path)
}

// Profile classifies a constraint set into the paper's dialects.
type Profile struct {
	// Regular is true if any constraint uses a path expression.
	Regular bool
	// Relative is true if any constraint has a nonempty context.
	Relative bool
	// MaxKeyArity and MaxIncArity are the largest attribute-list
	// lengths of keys and inclusions.
	MaxKeyArity, MaxIncArity int
	// Primary is true if no element type (within the same context for
	// relative constraints) carries two distinct keys.
	Primary bool
	// DisjointKeys is true if keys on the same element type never
	// share an attribute (the Corollary 3.3 restriction).
	DisjointKeys bool
}

// ClassName returns the paper's name for the smallest class containing
// the profile (over type-based constraints), e.g. "AC_{K,FK}" or
// "RC_{K,FK}".
func (p Profile) ClassName() string {
	switch {
	case p.Relative:
		return "RC_{K,FK}"
	case p.Regular:
		return "AC^{reg}_{K,FK}"
	case p.MaxKeyArity > 1 && p.MaxIncArity > 1:
		return "AC^{*,*}_{K,FK}"
	case p.MaxKeyArity > 1 && p.Primary:
		return "AC^{*,1}_{PK,FK}"
	case p.MaxKeyArity > 1:
		return "AC^{*,1}_{K,FK}"
	case p.Primary:
		return "AC_{PK,FK}"
	default:
		return "AC_{K,FK}"
	}
}

// Classify computes the profile of a set.
func Classify(s *Set) Profile {
	p := Profile{Primary: true, DisjointKeys: true}
	type keyScope struct{ ctx, typ string }
	seen := map[keyScope][][]string{}
	for _, k := range s.Keys {
		if k.Context != "" {
			p.Relative = true
		}
		if k.Target.Path != nil {
			p.Regular = true
		}
		if n := len(k.Target.Attrs); n > p.MaxKeyArity {
			p.MaxKeyArity = n
		}
		sc := keyScope{k.Context, k.Target.Type}
		for _, prior := range seen[sc] {
			if !sameAttrs(prior, k.Target.Attrs) {
				p.Primary = false
			}
			if intersects(prior, k.Target.Attrs) && !sameAttrs(prior, k.Target.Attrs) {
				p.DisjointKeys = false
			}
		}
		seen[sc] = append(seen[sc], k.Target.Attrs)
	}
	for _, c := range s.Incls {
		if c.Context != "" {
			p.Relative = true
		}
		if c.From.Path != nil || c.To.Path != nil {
			p.Regular = true
		}
		if n := len(c.From.Attrs); n > p.MaxIncArity {
			p.MaxIncArity = n
		}
	}
	return p
}

func sameAttrs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]string(nil), a...)
	bs := append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func intersects(a, b []string) bool {
	set := map[string]bool{}
	for _, x := range a {
		set[x] = true
	}
	for _, y := range b {
		if set[y] {
			return true
		}
	}
	return false
}

// Validate checks the set against a DTD: element types and attributes
// exist, attribute lists are nonempty and of matching lengths across
// inclusions, contexts are declared types, and every inclusion has the
// key on its right-hand side that the paper's foreign-key definition
// requires. It returns the first violation found by WFViolations; callers
// that want all of them should call WFViolations directly.
func (s *Set) Validate(d *dtd.DTD) error {
	if vs := s.WFViolations(d); len(vs) > 0 {
		return vs[0]
	}
	return nil
}

// hasKeyFor reports whether the key part of the foreign key c is in
// the set.
func (s *Set) hasKeyFor(c Inclusion) bool {
	want := Key{Context: c.Context, Target: c.To}
	for _, k := range s.Keys {
		if k.Equal(want) {
			return true
		}
	}
	return false
}

// Normalize returns an equivalent simplified set: key attribute lists
// are put in canonical (sorted) order — a key constrains a set of
// attributes, not a list — duplicate constraints are removed, and
// self-inclusions (From and To addressing the same attribute tuples)
// are dropped as trivially true. Inclusion attribute lists are NOT
// reordered: their coordinate pairing is semantic.
func (s *Set) Normalize() *Set {
	out := &Set{}
	seen := map[string]bool{}
	for _, k := range s.Keys {
		attrs := append([]string(nil), k.Target.Attrs...)
		sort.Strings(attrs)
		nk := Key{Context: k.Context, Target: Target{Path: k.Target.Path, Type: k.Target.Type, Attrs: attrs}}
		if id := nk.String(); !seen[id] {
			seen[id] = true
			out.AddKey(nk)
		}
	}
	for _, c := range s.Incls {
		if c.From.Equal(c.To) {
			continue
		}
		if id := c.String(); !seen[id] {
			seen[id] = true
			out.AddInclusion(c)
		}
	}
	return out
}

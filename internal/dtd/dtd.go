// Package dtd implements the Document Type Definitions of the paper
// (Definition 2.1): D = (E, A, P, R, r) with a finite set E of element
// types, attributes A, a content-model regular expression P(τ) and an
// attribute set R(τ) for each type, and a root type r. The package
// provides the standard structural analyses the decision procedures
// rely on — well-formedness, connectivity, recursion, satisfiability,
// Paths(D), Depth(D), the no-star test — plus the narrowing
// transformation D → D_N from the proof of Theorem 3.4 and a parser for
// <!ELEMENT>/<!ATTLIST> surface syntax.
package dtd

import (
	"fmt"
	"sort"

	"repro/internal/contentmodel"
)

// Element is one element type declaration: its content model P(τ) and
// attribute list R(τ).
type Element struct {
	Name string
	// Content is P(τ); never nil in a well-formed DTD (ε for leaves).
	Content *contentmodel.Expr
	// Attrs is R(τ), sorted, without duplicates.
	Attrs []string
}

// HasAttr reports whether l ∈ R(τ).
func (e *Element) HasAttr(l string) bool {
	for _, a := range e.Attrs {
		if a == l {
			return true
		}
	}
	return false
}

// DTD is a document type definition. Construct with New and add types
// with Define to keep the invariants (deterministic order, sorted
// attributes) intact.
type DTD struct {
	// Root is the element type r of the root.
	Root string
	// Names lists element types in definition order.
	Names []string
	// Elements maps each name in Names to its declaration.
	Elements map[string]*Element
}

// New returns an empty DTD with the given root type. The root itself
// must still be defined with Define.
func New(root string) *DTD {
	return &DTD{Root: root, Elements: map[string]*Element{}}
}

// Define adds (or, for a repeated name, replaces) an element type with
// the given content model and attributes. Attributes are copied, sorted
// and de-duplicated.
func (d *DTD) Define(name string, content *contentmodel.Expr, attrs ...string) *DTD {
	as := append([]string(nil), attrs...)
	sort.Strings(as)
	as = dedupSorted(as)
	if _, exists := d.Elements[name]; !exists {
		d.Names = append(d.Names, name)
	}
	d.Elements[name] = &Element{Name: name, Content: content, Attrs: as}
	return d
}

func dedupSorted(xs []string) []string {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || xs[i-1] != x {
			out = append(out, x)
		}
	}
	return out
}

// Element returns the declaration of the named type, or nil.
func (d *DTD) Element(name string) *Element { return d.Elements[name] }

// Attrs returns R(τ) for the named type (nil for unknown types).
func (d *DTD) Attrs(name string) []string {
	if e := d.Elements[name]; e != nil {
		return e.Attrs
	}
	return nil
}

// Size returns |D|: the total number of content-model nodes plus
// attribute declarations, the size measure used in the complexity
// statements.
func (d *DTD) Size() int {
	n := 0
	for _, name := range d.Names {
		e := d.Elements[name]
		n += 1 + e.Content.Size() + len(e.Attrs)
	}
	return n
}

// Clone returns a deep copy of the DTD.
func (d *DTD) Clone() *DTD {
	c := New(d.Root)
	for _, name := range d.Names {
		e := d.Elements[name]
		c.Define(name, e.Content.Clone(), e.Attrs...)
	}
	return c
}

// Validate checks the well-formedness conditions of Definition 2.1:
// the root is defined, every referenced element type is defined, the
// root type does not occur in any content model, and every non-root
// type is connected to the root. It returns the first violation found;
// within one content model, the offending reference reported is the
// least in sorted order.
func (d *DTD) Validate() error {
	if _, ok := d.Elements[d.Root]; !ok {
		return fmt.Errorf("dtd: root type %q is not defined", d.Root)
	}
	for _, name := range d.Names {
		e := d.Elements[name]
		if e.Content == nil {
			return fmt.Errorf("dtd: element type %q has no content model", name)
		}
		if ref, bad := d.leastBadRef(e.Content, "", false); bad {
			if ref == d.Root {
				return fmt.Errorf("dtd: root type %q occurs in the content model of %q", d.Root, name)
			}
			return fmt.Errorf("dtd: element type %q references undefined type %q", name, ref)
		}
	}
	reach := d.Reachable()
	for _, name := range d.Names {
		if !reach[name] {
			return fmt.Errorf("dtd: element type %q is not connected to the root", name)
		}
	}
	return nil
}

// leastBadRef folds over the references of e and returns the least one
// (in string order) that is undefined or names the root, starting from
// the incumbent (least, found). Walking the expression directly keeps
// validation free of the sorted Alphabet slice.
func (d *DTD) leastBadRef(e *contentmodel.Expr, least string, found bool) (string, bool) {
	if e.Kind == contentmodel.Name {
		if _, ok := d.Elements[e.Ref]; (!ok || e.Ref == d.Root) && (!found || e.Ref < least) {
			return e.Ref, true
		}
		return least, found
	}
	for _, k := range e.Kids {
		least, found = d.leastBadRef(k, least, found)
	}
	return least, found
}

// Reachable returns the set of element types reachable from the root
// through content models (the root included).
func (d *DTD) Reachable() map[string]bool {
	r := reacher{d: d, seen: make(map[string]bool, len(d.Names))}
	r.seen[d.Root] = true
	r.from(d.Root)
	return r.seen
}

// Below returns the set of element types strictly below name: every
// type reachable from it through a path of length ≥ 1 in D. name
// itself belongs to the set only when it lies on a cycle, which cannot
// happen in non-recursive DTDs. References to undefined types are
// included but not expanded.
func (d *DTD) Below(name string) map[string]bool {
	r := reacher{d: d, seen: map[string]bool{}}
	r.from(name)
	return r.seen
}

// reacher is the one reachability walk behind Reachable and Below: a
// DFS over content-model expressions (not Alphabet slices) that marks
// every referenced type in seen and expands each type once.
type reacher struct {
	d    *DTD
	seen map[string]bool
}

func (r *reacher) from(name string) {
	if e := r.d.Elements[name]; e != nil && e.Content != nil {
		r.expr(e.Content)
	}
}

func (r *reacher) expr(e *contentmodel.Expr) {
	if e.Kind == contentmodel.Name {
		if !r.seen[e.Ref] {
			r.seen[e.Ref] = true
			r.from(e.Ref)
		}
		return
	}
	for _, k := range e.Kids {
		r.expr(k)
	}
}

// children returns the sorted alphabet of P(τ) for a defined type.
func (d *DTD) children(name string) []string {
	if e := d.Elements[name]; e != nil && e.Content != nil {
		return e.Content.Alphabet()
	}
	return nil
}

// IsRecursive reports whether Paths(D) is infinite, i.e. whether the
// type reference graph restricted to reachable types has a cycle. The
// DFS walks content-model expressions directly rather than through
// Alphabet so the test allocates nothing beyond the color map; it runs
// in front of every consistency check via the speclint prepass.
func (d *DTD) IsRecursive() bool {
	c := cycleFinder{d: d, color: map[string]int{}}
	return c.visit(d.Root)
}

// cycleFinder is the IsRecursive DFS state; methods instead of mutually
// recursive closures keep the walk allocation-free beyond the map.
type cycleFinder struct {
	d     *DTD
	color map[string]int
}

func (c *cycleFinder) visit(name string) bool {
	const (
		gray  = 1
		black = 2
	)
	switch c.color[name] {
	case gray:
		return true
	case black:
		return false
	}
	c.color[name] = gray
	if e := c.d.Elements[name]; e != nil && e.Content != nil {
		if c.visitExpr(e.Content) {
			return true
		}
	}
	c.color[name] = black
	return false
}

func (c *cycleFinder) visitExpr(e *contentmodel.Expr) bool {
	if e.Kind == contentmodel.Name {
		return c.visit(e.Ref)
	}
	for _, k := range e.Kids {
		if c.visitExpr(k) {
			return true
		}
	}
	return false
}

// NoStar reports whether no Kleene star occurs in any content model
// (the "no-star DTD" restriction of Section 2; note "+" desugars to a
// star and therefore also disqualifies).
func (d *DTD) NoStar() bool {
	for _, name := range d.Names {
		if d.Elements[name].Content.HasStar() {
			return false
		}
	}
	return true
}

// Depth returns Depth(D) = max length of a path in Paths(D), counting
// element types (so a root with leaf children has depth 2). It panics
// on recursive DTDs, whose depth is unbounded; callers must check
// IsRecursive first.
func (d *DTD) Depth() int {
	if d.IsRecursive() {
		panic("dtd: Depth of a recursive DTD")
	}
	memo := map[string]int{}
	var depth func(string) int
	depth = func(name string) int {
		if v, ok := memo[name]; ok {
			return v
		}
		best := 1
		for _, ref := range d.children(name) {
			if v := 1 + depth(ref); v > best {
				best = v
			}
		}
		memo[name] = best
		return best
	}
	return depth(d.Root)
}

// Productive returns the set of element types that can derive a finite
// tree: τ is productive iff P(τ) matches some word whose element names
// are all productive (text is always allowed). Computed as a least
// fixpoint.
func (d *DTD) Productive() map[string]bool {
	prod := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for _, name := range d.Names {
			if prod[name] {
				continue
			}
			e := d.Elements[name]
			if e.Content.MatchSubset(func(ref string) bool { return prod[ref] }) {
				prod[name] = true
				changed = true
			}
		}
	}
	return prod
}

// ProductiveRank returns, for each productive element type, the round
// of the Productive fixpoint in which it was added (1-based). A type of
// rank k can derive a finite tree using only children of rank < k, so
// rank-decreasing expansion always terminates — this is what keeps the
// random tree generator total on recursive DTDs.
func (d *DTD) ProductiveRank() map[string]int {
	rank := map[string]int{}
	for round := 1; ; round++ {
		changed := false
		for _, name := range d.Names {
			if rank[name] > 0 {
				continue
			}
			e := d.Elements[name]
			if e.Content.MatchSubset(func(ref string) bool { r := rank[ref]; return r > 0 && r < round }) {
				rank[name] = round
				changed = true
			}
		}
		if !changed {
			return rank
		}
	}
}

// Satisfiable reports whether some finite XML tree conforms to the DTD
// at all (no constraints). Recursive DTDs may be unsatisfiable when the
// recursion is mandatory (e.g. P(a) = a).
func (d *DTD) Satisfiable() bool {
	return d.Productive()[d.Root]
}

// Paths enumerates Paths(D): every path of element types from the root
// (each path starts with r). The enumeration is depth-first in sorted
// child order, calling fn for each path; fn returns false to stop. It
// panics on recursive DTDs.
func (d *DTD) Paths(fn func(path []string) bool) {
	if d.IsRecursive() {
		panic("dtd: Paths of a recursive DTD")
	}
	var walk func(path []string) bool
	walk = func(path []string) bool {
		if !fn(path) {
			return false
		}
		for _, ref := range d.children(path[len(path)-1]) {
			next := append(append([]string(nil), path...), ref)
			if !walk(next) {
				return false
			}
		}
		return true
	}
	walk([]string{d.Root})
}

// PathCount returns |Paths(D)| for non-recursive DTDs, capped at limit
// (0 means no cap). Counting uses per-type memoization so it stays
// polynomial even when the path set is exponential.
func (d *DTD) PathCount(limit int) int {
	memo := map[string]int{}
	var count func(string) int
	count = func(name string) int {
		if v, ok := memo[name]; ok {
			return v
		}
		n := 1
		for _, ref := range d.children(name) {
			n += count(ref)
			if limit > 0 && n >= limit {
				n = limit
				break
			}
		}
		memo[name] = n
		return n
	}
	if d.IsRecursive() {
		panic("dtd: PathCount of a recursive DTD")
	}
	return count(d.Root)
}

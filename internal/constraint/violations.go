package constraint

import (
	"fmt"
	"slices"

	"repro/internal/dtd"
	"repro/internal/pathre"
)

// Violation codes: stable identifiers for each way a constraint set can
// fail well-formedness against a DTD. speclint maps them to rule IDs.
const (
	// VioUndeclaredType: a target, context, or path mentions an element
	// type the DTD does not declare.
	VioUndeclaredType = "undeclared-type"
	// VioUndeclaredAttr: a target uses an attribute outside R(τ).
	VioUndeclaredAttr = "undeclared-attr"
	// VioEmptyAttrs: a target has an empty attribute list.
	VioEmptyAttrs = "empty-attrs"
	// VioDuplicateAttr: a target repeats an attribute.
	VioDuplicateAttr = "duplicate-attr"
	// VioArityMismatch: an inclusion's attribute lists differ in length.
	VioArityMismatch = "arity-mismatch"
	// VioMissingKey: an inclusion lacks the key on its right-hand side
	// that the paper's foreign-key definition requires.
	VioMissingKey = "missing-key"
	// VioMixedAddressing: a constraint combines relative and regular
	// addressing.
	VioMixedAddressing = "mixed-addressing"
	// VioNonUnary: a relative or regular constraint is not unary.
	VioNonUnary = "non-unary"
)

// WFViolation is one well-formedness failure of a constraint set against
// a DTD.
type WFViolation struct {
	// Code is one of the Vio* identifiers.
	Code string
	// Kind is "key" or "inclusion"; Index is the position within the
	// corresponding slice of the Set.
	Kind  string
	Index int
	// Constraint is the offending constraint, rendered.
	Constraint string
	// Message describes the failure (without the "constraint: " prefix
	// the error form adds).
	Message string
}

// Error renders the violation in the format Set.Validate has always
// used.
func (v WFViolation) Error() string { return "constraint: " + v.Message }

// WFViolations checks the set against a DTD and returns every
// well-formedness failure, in deterministic order (keys before
// inclusions, each in declaration order): element types and attributes
// must exist, attribute lists must be nonempty, duplicate-free and of
// matching lengths across inclusions, contexts must be declared types,
// relative/regular constraints must be unary and unmixed, and every
// inclusion needs the key on its right-hand side that makes it a
// foreign key. Validate returns the first entry as an error.
//
// Nothing is rendered on the success path: a constraint's string is
// formatted only once it has a violation to report.
func (s *Set) WFViolations(d *dtd.DTD) []WFViolation {
	w := wfChecker{d: d}
	for i := range s.Keys {
		k := &s.Keys[i]
		w.start("key", i, k, nil)
		w.checkTarget(k.Target)
		if k.Context != "" && d.Element(k.Context) == nil {
			w.add(VioUndeclaredType, "context type %q of %s not declared", k.Context, w.what())
		}
		if k.Context != "" && k.Target.Path != nil {
			w.add(VioMixedAddressing, "%s mixes relative and regular addressing", w.what())
		}
		if (k.Context != "" || k.Target.Path != nil) && !k.Target.Unary() {
			w.add(VioNonUnary, "%s: relative and regular constraints must be unary", w.what())
		}
	}
	for i := range s.Incls {
		c := &s.Incls[i]
		w.start("inclusion", i, nil, c)
		w.checkTarget(c.From)
		w.checkTarget(c.To)
		if len(c.From.Attrs) != len(c.To.Attrs) {
			w.add(VioArityMismatch, "%s: attribute lists differ in length", w.what())
		}
		if c.Context != "" && d.Element(c.Context) == nil {
			w.add(VioUndeclaredType, "context type %q of %s not declared", c.Context, w.what())
		}
		if c.Context != "" && (c.From.Path != nil || c.To.Path != nil) {
			w.add(VioMixedAddressing, "%s mixes relative and regular addressing", w.what())
		}
		if (c.Context != "" || c.From.Path != nil || c.To.Path != nil) && !c.From.Unary() {
			w.add(VioNonUnary, "%s: relative and regular constraints must be unary", w.what())
		}
		if !s.hasKeyFor(*c) {
			w.add(VioMissingKey, "inclusion %s lacks the key %s -> %s that makes it a foreign key",
				w.what(), c.To, c.To.NodeString())
		}
	}
	return w.out
}

// wfChecker accumulates the violations of one WFViolations pass. It
// renders the constraint under inspection lazily, at most once, and
// only when a violation needs the text.
type wfChecker struct {
	d     *dtd.DTD
	out   []WFViolation
	kind  string
	index int
	// key or incl is the constraint under inspection; text caches its
	// rendering.
	key  *Key
	incl *Inclusion
	text string
}

// start moves the checker to the next constraint.
func (w *wfChecker) start(kind string, index int, key *Key, incl *Inclusion) {
	w.kind, w.index, w.key, w.incl, w.text = kind, index, key, incl, ""
}

// what returns the current constraint's rendering.
func (w *wfChecker) what() string {
	if w.text == "" {
		if w.key != nil {
			w.text = w.key.String()
		} else {
			w.text = w.incl.String()
		}
	}
	return w.text
}

func (w *wfChecker) add(code, format string, args ...any) {
	w.out = append(w.out, WFViolation{
		Code: code, Kind: w.kind, Index: w.index, Constraint: w.what(),
		Message: fmt.Sprintf(format, args...),
	})
}

func (w *wfChecker) checkTarget(t Target) {
	el := w.d.Element(t.Type)
	if el == nil {
		w.add(VioUndeclaredType, "%s refers to undeclared element type %q", w.what(), t.Type)
	}
	if len(t.Attrs) == 0 {
		w.add(VioEmptyAttrs, "%s has an empty attribute list", w.what())
	}
	for i, l := range t.Attrs {
		if el != nil && !el.HasAttr(l) {
			w.add(VioUndeclaredAttr, "%s uses attribute %q not in R(%s)", w.what(), l, t.Type)
		}
		if slices.Contains(t.Attrs[:i], l) {
			w.add(VioDuplicateAttr, "%s repeats attribute %q", w.what(), l)
		}
	}
	if t.Path != nil && !w.declaresAll(t.Path) {
		for _, sym := range t.Path.Symbols() {
			if w.d.Element(sym) == nil {
				w.add(VioUndeclaredType, "%s path mentions undeclared type %q", w.what(), sym)
			}
		}
	}
}

// declaresAll reports whether every element type the path mentions is
// declared, walking the path without collecting its symbols.
func (w *wfChecker) declaresAll(p *pathre.Expr) bool {
	if p.Kind == pathre.Sym && w.d.Element(p.Name) == nil {
		return false
	}
	for _, k := range p.Kids {
		if !w.declaresAll(k) {
			return false
		}
	}
	return true
}

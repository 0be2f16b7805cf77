package prover

import (
	"repro/internal/constraint"
	"repro/internal/contentmodel"
	"repro/internal/dtd"
)

// InFragment reports whether (d, set) lies in the fragment on which the
// saturation engine is complete (see the package comment for the full
// definition and the completeness argument):
//
//   - d is valid, non-recursive and choice-free;
//   - d is duplicate-free with simple multiplicities — every non-root
//     type is referenced by exactly one content model, as some number u
//     of bare occurrences plus at most one starred occurrence (so each
//     parent node carries exactly u or at least u children of the
//     type), and every star body is a single type reference;
//   - every constraint is unary, type-based and absolute, and every
//     inclusion has covering keys on both of its sides.
//
// The differential harness uses this predicate to select the specs on
// which prover-consistent must imply Check-consistent.
func InFragment(d *dtd.DTD, set *constraint.Set) bool {
	return set != nil && dtdInFragment(d) && setInFragment(set)
}

// dtdInFragment is InFragment's condition on the DTD alone.
func dtdInFragment(d *dtd.DTD) bool {
	if d == nil || d.Validate() != nil || d.IsRecursive() {
		return false
	}
	// One occurrence record per type across the whole DTD.
	plain := map[string]int{} // bare references
	starred := map[string]int{}
	owner := map[string]string{} // type -> referencing model's type
	for _, name := range d.Names {
		items, ok := flattenSimple(d.Element(name).Content)
		if !ok {
			return false
		}
		for _, it := range items {
			if prev, seen := owner[it.ref]; seen && prev != name {
				return false // referenced from two content models
			}
			owner[it.ref] = name
			if it.star {
				starred[it.ref]++
			} else {
				plain[it.ref]++
			}
		}
	}
	for _, name := range d.Names {
		if s := starred[name]; s > 1 {
			return false
		}
	}
	return true
}

// setInFragment is InFragment's condition on the constraint set alone.
func setInFragment(set *constraint.Set) bool {
	for _, k := range set.Keys {
		if k.Context != "" || k.Target.Path != nil || !k.Target.Unary() {
			return false
		}
	}
	for _, in := range set.Incls {
		if in.Context != "" || in.From.Path != nil || in.To.Path != nil ||
			!in.From.Unary() || !in.To.Unary() {
			return false
		}
		if !hasAbsoluteKey(set, in.From) || !hasAbsoluteKey(set, in.To) {
			return false
		}
	}
	return true
}

// item is one factor of a flattened simple content model: a type
// reference, optionally starred.
type item struct {
	ref  string
	star bool
}

// flattenSimple decomposes a content model into a sequence of τ and τ*
// factors, rejecting choices, nested stars and non-atomic star bodies.
func flattenSimple(e *contentmodel.Expr) ([]item, bool) {
	switch e.Kind {
	case contentmodel.Empty, contentmodel.Text:
		return nil, true
	case contentmodel.Name:
		return []item{{ref: e.Ref}}, true
	case contentmodel.Star:
		body := e.Kids[0]
		if body.Kind != contentmodel.Name {
			return nil, false
		}
		return []item{{ref: body.Ref, star: true}}, true
	case contentmodel.Seq:
		var out []item
		for _, k := range e.Kids {
			sub, ok := flattenSimple(k)
			if !ok {
				return nil, false
			}
			out = append(out, sub...)
		}
		return out, true
	}
	return nil, false // Choice or unknown kind
}

// hasAbsoluteKey reports whether set contains an absolute, path-free
// key exactly covering the (type, attribute) of the unary target t.
func hasAbsoluteKey(set *constraint.Set, t constraint.Target) bool {
	for _, k := range set.Keys {
		if k.Context == "" && k.Target.Path == nil && k.Target.Unary() &&
			k.Target.Type == t.Type && k.Target.Attrs[0] == t.Attrs[0] {
			return true
		}
	}
	return false
}

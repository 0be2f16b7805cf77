package prover

import (
	"repro/internal/constraint"
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
	return set != nil && d != nil && Analyze(d).inFragment() && setInFragment(set)
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

package speclint

import (
	"fmt"

	"repro/internal/constraint"
)

// Tier-3 rules: provably sound necessary conditions for inconsistency
// decidable without ILP. Each rule's Error finding is a proof that no
// conforming document satisfies the constraints, so consistency.Check
// must return Inconsistent on the same spec. Both rules only run on
// tier-1-clean, DTD-satisfiable specs (SL101 covers unsatisfiable
// DTDs), and only consider path-free inclusions.

// keyCovers reports whether the set has a key on typ over exactly the
// attribute set attrs (order-insensitive) whose scope covers every
// scope of a constraint with context ctx: the same context, or the
// absolute one (global uniqueness implies per-scope uniqueness).
func keyCovers(set *constraint.Set, typ string, attrs []string, ctx string) bool {
	for _, k := range set.Keys {
		if k.Target.Path != nil || k.Target.Type != typ {
			continue
		}
		if k.Context != "" && k.Context != ctx {
			continue
		}
		if sameAttrSet(k.Target.Attrs, attrs) {
			return true
		}
	}
	return false
}

// sameAttrSet compares attribute lists as sets. Lists are
// duplicate-free on tier-1-clean specs, so equal length + containment
// suffices.
func sameAttrSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		found := false
		for _, y := range b {
			if x == y {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// ruleCardinalityClash (SL201) detects the geography-style clash of
// Figure 1(b): an inclusion σ[X] ⊆ τ[Y] whose two sides both carry
// keys forces count(σ) ≤ count(τ) in every scope (the key on σ[X]
// makes σ-count equal the number of distinct X-values, the inclusion
// maps those injectively into the τ[Y] values, and the key on τ[Y]
// caps them by the τ-count). If the DTD forces every scope to contain
// strictly more σ than τ nodes, the spec is inconsistent.
//
// The structural bound is the minimum of count(σ) − count(τ): per
// type, over all subtrees the type can derive (sequences add, choices
// take the branch minimum, a star contributes 0 or −∞); per scope, over
// the words of the scope's content model. The computation recurses
// through the type graph, so the rule skips recursive DTDs.
func ruleCardinalityClash(f *facts, emit func(Diagnostic)) {
	if !f.Clean() || !f.Satisfiable() || f.Recursive() {
		return
	}
	for _, c := range f.set.Incls {
		if c.From.Path != nil || c.To.Path != nil {
			continue
		}
		sigma, tau := c.From.Type, c.To.Type
		if sigma == tau {
			continue
		}
		if !keyCovers(f.set, sigma, c.From.Attrs, c.Context) ||
			!keyCovers(f.set, tau, c.To.Attrs, c.Context) {
			continue
		}
		var diff int
		var scope string
		if c.Context == "" {
			diff = f.MinDiff(sigma, tau)[f.d.Root]
			scope = "every conforming document"
		} else {
			if !f.MustOccur(c.Context) {
				continue
			}
			diff = f.WordDiff(f.d.Element(c.Context).Content, sigma, tau)
			scope = fmt.Sprintf("the scope of every %q node (one of which must occur)", c.Context)
		}
		if diff < 1 {
			continue
		}
		emit(Diagnostic{
			Severity: Error,
			Message: fmt.Sprintf(
				"keys and foreign key force count(%s) ≤ count(%s) per scope, but %s contains at least %d more %q than %q nodes",
				sigma, tau, scope, diff, sigma, tau),
			Subject: c.String(),
			Fix:     fmt.Sprintf("let the content models admit at least as many %q as %q nodes, or drop the key on %s", tau, sigma, c.From),
		})
	}
}

// ruleOrphanRequiredSource (SL202) detects inclusions whose source type
// is forced to occur while the target type never occurs: the required
// source node carries an X-value (every σ node has all of R(σ) in the
// paper's model) that must match some τ[Y] value, but the τ-extent is
// empty in every conforming document.
func ruleOrphanRequiredSource(f *facts, emit func(Diagnostic)) {
	if !f.Clean() || !f.Satisfiable() {
		return
	}
	for _, c := range f.set.Incls {
		if c.From.Path != nil || c.To.Path != nil {
			continue
		}
		sigma, tau := c.From.Type, c.To.Type
		if sigma == tau || f.Occurrable()[tau] {
			continue
		}
		var required bool
		var where string
		if c.Context == "" {
			required = f.MustOccur(sigma)
			where = "every conforming document"
		} else {
			required = f.MustOccur(c.Context) && f.MustOccurUnder(c.Context, sigma)
			where = fmt.Sprintf("the scope of every %q node (one of which must occur)", c.Context)
		}
		if !required {
			continue
		}
		emit(Diagnostic{
			Severity: Error,
			Message: fmt.Sprintf(
				"%s must contain a %q node, whose %v value needs a matching %s, but type %q never occurs in any conforming document",
				where, sigma, c.From.Attrs, c.To, tau),
			Subject: c.String(),
			Fix:     fmt.Sprintf("make type %q occurrable or the %q branch optional", tau, sigma),
		})
	}
}

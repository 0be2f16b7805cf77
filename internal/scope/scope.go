// Package scope implements the hierarchical scope decomposition of
// Section 4.2: restricted types, conflicting pairs, the per-scope
// restricted DTD D_τ, and the projection of a relative constraint set
// onto one scope. The consistency checker drives the decomposition;
// the certificate verifier re-derives individual scope problems from
// it without re-running any solver. Keeping the derivation here — with
// no dependency on either the checker or the solver — is what lets
// both sides agree on the exact same scope encodings.
package scope

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/constraint"
	"repro/internal/contentmodel"
	"repro/internal/dtd"
)

// RootPrefix names the fresh root type of a scope DTD. It uses a
// character the parsers reject in names, so it can never collide with
// a user element type.
const RootPrefix = "scope#"

// NormalizeContext maps the empty (absolute) context to the root type.
func NormalizeContext(ctx, root string) string {
	if ctx == "" {
		return root
	}
	return ctx
}

// RestrictedTypes returns the restricted types of (D, Σ): the root
// plus every context type (Section 4.2).
func RestrictedTypes(d *dtd.DTD, set *constraint.Set) map[string]bool {
	out := map[string]bool{d.Root: true}
	for _, k := range set.Keys {
		out[NormalizeContext(k.Context, d.Root)] = true
	}
	for _, c := range set.Incls {
		out[NormalizeContext(c.Context, d.Root)] = true
	}
	return out
}

// ConflictingPair is a pair of restricted types whose scopes are
// related by a foreign key (Section 4.2), the obstruction to the
// hierarchical decomposition.
type ConflictingPair struct {
	Outer, Inner string
	// Via is a constraint witnessing the conflict.
	Via string
}

// ConflictingPairs returns all conflicting pairs of the specification,
// each (Outer, Inner, Via) once, sorted. (τ1, τ2) is conflicting iff
// τ1 ≠ τ2, there is a path in D from τ1 to τ2, τ2 is the context type
// of some constraint, and some inclusion with context τ1 mentions a
// type strictly below τ2. Every path query is answered from one
// descendant set per source type, built on first use.
func ConflictingPairs(d *dtd.DTD, set *constraint.Set) []ConflictingPair {
	restricted := RestrictedTypes(d, set)
	contexts := map[string]bool{}
	for _, k := range set.Keys {
		contexts[NormalizeContext(k.Context, d.Root)] = true
	}
	for _, c := range set.Incls {
		contexts[NormalizeContext(c.Context, d.Root)] = true
	}
	memo := map[string]map[string]bool{}
	below := func(t string) map[string]bool {
		b, ok := memo[t]
		if !ok {
			b = d.Below(t)
			memo[t] = b
		}
		return b
	}
	var out []ConflictingPair
	for t1 := range restricted {
		for t2 := range contexts {
			if t1 == t2 || !below(t1)[t2] {
				continue
			}
			under := below(t2)
			for _, c := range set.Incls {
				if NormalizeContext(c.Context, d.Root) != t1 {
					continue
				}
				if (c.From.Type != t2 && under[c.From.Type]) || (c.To.Type != t2 && under[c.To.Type]) {
					out = append(out, ConflictingPair{Outer: t1, Inner: t2, Via: c.String()})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Outer != out[j].Outer {
			return out[i].Outer < out[j].Outer
		}
		if out[i].Inner != out[j].Inner {
			return out[i].Inner < out[j].Inner
		}
		return out[i].Via < out[j].Via
	})
	// A constraint listed twice in Σ witnesses the same pair twice.
	return slices.Compact(out)
}

// Hierarchical reports whether (D, Σ) ∈ HRC: the DTD is non-recursive
// and no conflicting pair exists.
func Hierarchical(d *dtd.DTD, set *constraint.Set) bool {
	return !d.IsRecursive() && len(ConflictingPairs(d, set)) == 0
}

// DTD builds the restricted DTD D_τ of Section 4.2. For non-root
// scopes a fresh root type stands in for τ: τ's own attributes and any
// τ-typed nodes belong to enclosing scopes. The document-root scope
// keeps its own type and attributes — the root node itself
// participates in absolute constraints that mention the root type.
// It returns the DTD and its exit types: context types that occur
// inside the scope as leaves.
func DTD(d *dtd.DTD, contexts map[string]bool, tau string) (*dtd.DTD, []string) {
	rootName := RootPrefix + tau
	var rootAttrs []string
	if tau == d.Root {
		// The root type never occurs in content models (Definition
		// 2.1), so no collision is possible.
		rootName = tau
		rootAttrs = d.Element(tau).Attrs
	}
	sd := dtd.New(rootName)
	content := d.Element(tau).Content.Clone()
	sd.Define(rootName, content, rootAttrs...)
	var exits []string
	seen := map[string]bool{rootName: true}
	queue := content.Alphabet()
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		if seen[t] {
			continue
		}
		seen[t] = true
		el := d.Element(t)
		if contexts[t] {
			// Context types are scope boundaries: leaves here, roots
			// of their own scope problems.
			sd.Define(t, contentmodel.Eps(), el.Attrs...)
			exits = append(exits, t)
			continue
		}
		sd.Define(t, el.Content.Clone(), el.Attrs...)
		queue = append(queue, el.Content.Alphabet()...)
	}
	sort.Strings(exits)
	return sd, exits
}

// DLocality returns the largest Depth(D_τ) over the root and every
// context type (the d of d-HRC, Theorem 4.4). The DTD must be
// non-recursive.
func DLocality(d *dtd.DTD, set *constraint.Set) int {
	contexts := ContextTypes(d, set)
	best := 0
	for tau := range Roots(d, contexts) {
		sd, _ := DTD(d, contexts, tau)
		if v := sd.Depth(); v > best {
			best = v
		}
	}
	return best
}

// ContextTypes returns the context types of Σ (normalized).
func ContextTypes(d *dtd.DTD, set *constraint.Set) map[string]bool {
	out := map[string]bool{}
	for _, k := range set.Keys {
		if k.Context != "" {
			out[NormalizeContext(k.Context, d.Root)] = true
		}
	}
	for _, c := range set.Incls {
		if c.Context != "" {
			out[NormalizeContext(c.Context, d.Root)] = true
		}
	}
	return out
}

// Roots is the root plus every context type reachable in D.
func Roots(d *dtd.DTD, contexts map[string]bool) map[string]bool {
	out := map[string]bool{d.Root: true}
	reach := d.Reachable()
	for c := range contexts {
		if reach[c] {
			out[c] = true
		}
	}
	return out
}

// ChainKey canonically names a (chain, τ) scope problem: the sorted
// chain members joined by commas, then "|", then τ. Both the checker's
// memo table and certificate scope witnesses use this key, so the two
// sides address the same sub-problems by the same names.
func ChainKey(chain map[string]bool, tau string) string {
	var names []string
	for c := range chain {
		names = append(names, c)
	}
	sort.Strings(names)
	return strings.Join(names, ",") + "|" + tau
}

// LocalSet projects Σ onto a scope: keys of any chain context whose
// target type lives in the scope become absolute keys; inclusions with
// context τ become absolute inclusions. It also returns types whose
// extent must be forced to zero (inclusion sources whose target type
// cannot occur in the scope).
//
// Absolute constraints (empty context) and root-relative constraints
// differ exactly on the root type: the absolute extent of the root
// type contains the root node, the relative one (proper descendants)
// does not. In the root scope the root type is a scope member, so
// absolute constraints apply to it directly, while root-relative
// constraints targeting the root type are vacuous (keys) or
// unsatisfiable-with-sources (inclusions).
func LocalSet(d *dtd.DTD, sd *dtd.DTD, set *constraint.Set, chain map[string]bool, tau string) (*constraint.Set, []string) {
	isRootScope := tau == d.Root
	// inScope: does the target type have instances inside this scope?
	// The scope-root type itself counts only in the root scope and
	// only for absolute constraints.
	inScope := func(t string, absolute bool) bool {
		if sd.Element(t) == nil || strings.HasPrefix(t, RootPrefix) {
			return false
		}
		if t == tau {
			return isRootScope && absolute
		}
		return true
	}
	local := &constraint.Set{}
	var forceZero []string
	for _, k := range set.Keys {
		ctx := NormalizeContext(k.Context, d.Root)
		if !chain[ctx] || !inScope(k.Target.Type, k.Context == "") {
			continue
		}
		local.AddKey(constraint.Key{Target: constraint.Target{Type: k.Target.Type, Attrs: k.Target.Attrs}})
	}
	for _, c := range set.Incls {
		ctx := NormalizeContext(c.Context, d.Root)
		if ctx != tau {
			continue
		}
		absolute := c.Context == ""
		fromIn, toIn := inScope(c.From.Type, absolute), inScope(c.To.Type, absolute)
		switch {
		case !fromIn:
			// No sources in this scope: vacuous.
		case fromIn && !toIn:
			// Sources can never find a target: they must be absent.
			forceZero = append(forceZero, c.From.Type)
		default:
			local.AddInclusion(constraint.Inclusion{
				From: constraint.Target{Type: c.From.Type, Attrs: c.From.Attrs},
				To:   constraint.Target{Type: c.To.Type, Attrs: c.To.Attrs},
			})
			// The paired key must exist locally too.
			local.AddKey(constraint.Key{Target: constraint.Target{Type: c.To.Type, Attrs: c.To.Attrs}})
		}
	}
	return DedupSet(local), forceZero
}

// DedupSet removes duplicate constraints (projection can repeat them).
func DedupSet(s *constraint.Set) *constraint.Set {
	out := &constraint.Set{}
	seenK := map[string]bool{}
	for _, k := range s.Keys {
		if !seenK[k.String()] {
			seenK[k.String()] = true
			out.AddKey(k)
		}
	}
	seenI := map[string]bool{}
	for _, c := range s.Incls {
		if !seenI[c.String()] {
			seenI[c.String()] = true
			out.AddInclusion(c)
		}
	}
	return out
}

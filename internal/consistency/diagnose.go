package consistency

import (
	"fmt"

	"repro/internal/constraint"
	"repro/internal/dtd"
)

// Core is the result of inconsistency diagnosis.
type Core struct {
	// DTDUnsatisfiable is true when the DTD alone admits no finite
	// document; the constraint core is empty then.
	DTDUnsatisfiable bool
	// Constraints is a subset of Σ that is already inconsistent with
	// the DTD, minimal in the sense that removing any single removable
	// member makes the verdict non-Inconsistent (removals that would
	// orphan a foreign key's paired key are not attempted).
	Constraints *constraint.Set
	// Checks counts the consistency sub-checks performed.
	Checks int
}

// MinimalCore explains an inconsistent specification by deletion-based
// minimization: it repeatedly removes constraints whose absence keeps
// the specification inconsistent. Exactness is preserved by keeping a
// constraint whenever the reduced check does not come back
// Inconsistent (including Unknown outcomes, which are treated
// conservatively). It returns an error when the specification is not
// inconsistent to begin with.
func MinimalCore(d *dtd.DTD, set *constraint.Set, opts Options) (Core, error) {
	opts.SkipWitness = true
	core := Core{}
	c := compile(d)
	if !c.lint.Satisfiable() {
		core.DTDUnsatisfiable = true
		core.Constraints = &constraint.Set{}
		return core, nil
	}
	res, err := c.check(set, opts)
	if err != nil {
		return Core{}, err
	}
	core.Checks++
	if res.Verdict != Inconsistent {
		return Core{}, fmt.Errorf("consistency: MinimalCore on a %v specification", res.Verdict)
	}

	// Work over an index list so removals keep deterministic order:
	// inclusions first (removing them can free their keys), then keys.
	type item struct {
		isKey bool
		idx   int
	}
	var order []item
	for i := range set.Incls {
		order = append(order, item{false, i})
	}
	for i := range set.Keys {
		order = append(order, item{true, i})
	}
	keptIncl := make([]bool, len(set.Incls))
	keptKey := make([]bool, len(set.Keys))
	for i := range keptIncl {
		keptIncl[i] = true
	}
	for i := range keptKey {
		keptKey[i] = true
	}
	build := func() *constraint.Set {
		out := &constraint.Set{}
		for i, k := range set.Keys {
			if keptKey[i] {
				out.AddKey(k)
			}
		}
		for i, c := range set.Incls {
			if keptIncl[i] {
				out.AddInclusion(c)
			}
		}
		return out
	}
	for _, it := range order {
		if it.isKey {
			keptKey[it.idx] = false
		} else {
			keptIncl[it.idx] = false
		}
		candidate := build()
		// Removing a key that still pairs a kept inclusion would make
		// the set ill-formed; keep it.
		if candidate.Validate(d) != nil {
			if it.isKey {
				keptKey[it.idx] = true
			} else {
				keptIncl[it.idx] = true
			}
			continue
		}
		r, err := c.check(candidate, opts)
		core.Checks++
		if err != nil || r.Verdict != Inconsistent {
			// The constraint is load-bearing (or the reduced problem
			// became undecidable): keep it.
			if it.isKey {
				keptKey[it.idx] = true
			} else {
				keptIncl[it.idx] = true
			}
		}
	}
	core.Constraints = build()
	return core, nil
}

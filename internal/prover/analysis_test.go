package prover

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/constraint"
	"repro/internal/dtd"
)

// SubsetOf returns the constraint set holding the Σ indices whose bits
// are set in mask (keys first, then inclusions), or nil when that
// subset is not well-formed over d. It is exported for the external
// differential harness.
func SubsetOf(d *dtd.DTD, set *constraint.Set, mask uint64) *constraint.Set {
	out := &constraint.Set{}
	for i, k := range set.Keys {
		if mask&(1<<i) != 0 {
			out.AddKey(k)
		}
	}
	for i, in := range set.Incls {
		if mask&(1<<(len(set.Keys)+i)) != 0 {
			out.AddInclusion(in)
		}
	}
	if out.Validate(d) != nil {
		return nil
	}
	return out
}

// requireSameOutcome saturates sub through the shared Analysis and
// afresh, and demands identical outcomes.
func requireSameOutcome(t *testing.T, a *Analysis, d *dtd.DTD, sub *constraint.Set, what string) {
	t.Helper()
	got := a.Saturate(sub)
	want := Saturate(d, sub)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: shared-Analysis outcome differs from a fresh saturation:\n got %+v\nwant %+v", what, got, want)
	}
}

// TestAnalysisReuseMatchesFreshSaturate: saturating every well-formed
// subset of Σ through one shared Analysis — forwards, then backwards
// over the now warm memos — gives exactly the outcome of a fresh
// Saturate per subset.
func TestAnalysisReuseMatchesFreshSaturate(t *testing.T) {
	type spec struct {
		name string
		d    *dtd.DTD
		set  *constraint.Set
	}
	var specs []spec
	for _, p := range []struct{ dtd, keys string }{
		{"geography", "geography"},
		{"library", "library"},
		{"school", "school"},
		{"school", "school-extended"},
	} {
		d, set := loadSpec(t, p.dtd, p.keys)
		specs = append(specs, spec{p.keys, d, set})
	}
	d, set := fragmentRefutationSpec(t)
	specs = append(specs, spec{"fragment", d, set})
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			n := ConstraintCount(sp.set)
			a := Analyze(sp.d)
			runs := 0
			for pass := 0; pass < 2; pass++ {
				for m := uint64(0); m < 1<<n; m++ {
					mask := m
					if pass == 1 {
						mask = 1<<n - 1 - m
					}
					sub := SubsetOf(sp.d, sp.set, mask)
					if sub == nil {
						continue
					}
					requireSameOutcome(t, a, sp.d, sub, sub.String())
					runs++
				}
			}
			if runs == 0 {
				t.Fatal("no well-formed subset")
			}
		})
	}
}

// TestAnalysisReuseKeepsBudget: the work budget is charged per run even
// when the folds it pays for are already cached, so a budget-tripping
// specification exhausts identically on a warm Analysis, and smaller
// subsets in between neither trip it early nor late. With exactly-once
// children every pairwise gap is finite, so the fact count records
// exactly where the budget tripped.
func TestAnalysisReuseKeepsBudget(t *testing.T) {
	for _, mult := range []string{"*", ""} {
		d, set := budgetSpec(t, mult)
		half := &constraint.Set{Keys: set.Keys[:len(set.Keys)/2]}
		few := &constraint.Set{Keys: set.Keys[:3]}
		a := Analyze(d)
		for i, sub := range []*constraint.Set{set, few, half, set, few} {
			what := fmt.Sprintf("multiplicity %q, %s", mult, []string{"full", "3 keys", "half", "full again", "3 keys again"}[i])
			requireSameOutcome(t, a, d, sub, what)
		}
		if out := a.Saturate(set); !out.Exhausted {
			t.Fatalf("multiplicity %q: the full spec no longer exhausts the budget on a warm Analysis", mult)
		}
	}
}

// TestAnalysisReuseInterleavedSigma: two different constraint sets over
// one DTD, saturated alternately through one Analysis, never see each
// other's facts — the Analysis holds DTD-only folds.
func TestAnalysisReuseInterleavedSigma(t *testing.T) {
	d, plain := loadSpec(t, "school", "school")
	_, extended := loadSpec(t, "school", "school-extended")
	a := Analyze(d)
	np, ne := ConstraintCount(plain), ConstraintCount(extended)
	for m := uint64(0); m < 1<<max(np, ne); m++ {
		for _, set := range []*constraint.Set{extended, plain} {
			if m >= 1<<ConstraintCount(set) {
				continue
			}
			if sub := SubsetOf(d, set, m); sub != nil {
				requireSameOutcome(t, a, d, sub, sub.String())
			}
		}
	}
	if !a.Saturate(extended).Refuted || a.Saturate(plain).Refuted {
		t.Fatal("interleaved runs changed the school verdicts")
	}
}

package prover

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/constraint"
	"repro/internal/contentmodel"
	"repro/internal/dtd"
)

func loadSpec(t *testing.T, dtdName, keysName string) (*dtd.DTD, *constraint.Set) {
	t.Helper()
	db, err := os.ReadFile(filepath.Join("..", "..", "testdata", dtdName+".dtd"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := dtd.Parse(string(db))
	if err != nil {
		t.Fatal(err)
	}
	kb, err := os.ReadFile(filepath.Join("..", "..", "testdata", keysName+".keys"))
	if err != nil {
		t.Fatal(err)
	}
	set, err := constraint.ParseSet(string(kb))
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(d); err != nil {
		t.Fatal(err)
	}
	return d, set
}

// requireRefuted asserts a replayable refutation whose derivation ends
// in the document-scope contradiction, uses only registered sound
// rules, and cites at least one constraint.
func requireRefuted(t *testing.T, d *dtd.DTD, set *constraint.Set) Outcome {
	t.Helper()
	out := Saturate(d, set)
	if !out.Refuted {
		t.Fatalf("expected refutation; %d facts derived", out.Facts)
	}
	if len(out.Derivation) == 0 {
		t.Fatal("refutation without derivation")
	}
	last := out.Derivation[len(out.Derivation)-1].Fact
	if last.Kind != FactFalse || last.Scope != "" {
		t.Fatalf("derivation ends in %v, want document-scope ⊥", last)
	}
	cited := false
	for i, st := range out.Derivation {
		rule := RuleByName(st.Rule)
		if rule == nil || !rule.Sound {
			t.Fatalf("step %d uses unregistered or unsound rule %q", i, st.Rule)
		}
		for _, p := range st.Premises {
			if p < 0 || p >= i {
				t.Fatalf("step %d has out-of-order premise %d", i, p)
			}
		}
		for _, c := range st.Constraints {
			cited = true
			if c < 0 || c >= ConstraintCount(set) {
				t.Fatalf("step %d cites Σ index %d out of range", i, c)
			}
		}
	}
	if !cited {
		t.Fatal("refutation cites no constraints")
	}
	if err := Replay(d, set, out.Derivation); err != nil {
		t.Fatalf("Replay rejected the derivation: %v", err)
	}
	return out
}

// TestSaturateGeography exercises the scoped count chain: within each
// country the relative keys and inclusion force
// count(capital) ≤ count(province), the DTD forces
// count(capital) ≥ count(province) + 1, the cycle contradicts the
// country scope, and the forced occurrence of country lifts the
// contradiction to the document.
func TestSaturateGeography(t *testing.T) {
	d, set := loadSpec(t, "geography", "geography")
	out := requireRefuted(t, d, set)
	rules := map[string]bool{}
	for _, st := range out.Derivation {
		rules[st.Rule] = true
	}
	for _, want := range []string{"key-ext", "incl-le", "dtd-gap", "contra-cycle", "scope-unsat"} {
		if !rules[want] {
			t.Errorf("derivation misses expected rule %s", want)
		}
	}
}

// TestSaturateSchoolExtended exercises the regular-dialect region
// chain: the inclusion chain puts the (forced, non-empty) professor
// record ids inside the student record ids, while the union key makes
// the two regions' value sets disjoint.
func TestSaturateSchoolExtended(t *testing.T) {
	d, set := loadSpec(t, "school", "school-extended")
	out := requireRefuted(t, d, set)
	rules := map[string]bool{}
	for _, st := range out.Derivation {
		rules[st.Rule] = true
	}
	for _, want := range []string{"incl-sub", "key-disjoint", "region-nonempty", "region-contra"} {
		if !rules[want] {
			t.Errorf("derivation misses expected rule %s", want)
		}
	}
}

func TestSaturateConsistentSpecs(t *testing.T) {
	for _, tc := range []struct{ dtdName, keysName string }{
		{"library", "library"},
		{"school", "school"},
	} {
		d, set := loadSpec(t, tc.dtdName, tc.keysName)
		if out := Saturate(d, set); out.Refuted {
			t.Errorf("%s: consistent spec refuted: %v", tc.keysName, out.Derivation)
		}
	}
	// Geography becomes consistent once the inclusion is dropped; the
	// prover must not refute the remaining keys.
	d, set := loadSpec(t, "geography", "geography")
	set.Incls = nil
	if out := Saturate(d, set); out.Refuted {
		t.Errorf("geography keys without the inclusion refuted: %v", out.Derivation)
	}
}

func TestReplayRejectsTampering(t *testing.T) {
	d, set := loadSpec(t, "geography", "geography")
	out := Saturate(d, set)
	if !out.Refuted {
		t.Fatal("expected refutation")
	}

	truncated := out.Derivation[:len(out.Derivation)-1]
	if err := Replay(d, set, truncated); err == nil {
		t.Error("Replay accepted a derivation without the final contradiction")
	}

	tampered := append([]Step(nil), out.Derivation...)
	for i, st := range tampered {
		if st.Rule == "dtd-gap" {
			st.Fact.K += 5 // claim a larger forced gap than the DTD provides
			tampered[i] = st
			break
		}
	}
	if err := Replay(d, set, tampered); err == nil {
		t.Error("Replay accepted an inflated dtd-gap claim")
	}

	// Replaying against a weakened Σ must fail: the cited inclusion is
	// gone, so the incl-le step no longer checks.
	weak := set.Clone()
	weak.Incls = nil
	if err := Replay(d, weak, out.Derivation); err == nil {
		t.Error("Replay accepted a derivation against a Σ missing its constraints")
	}

	if err := Replay(d, set, nil); err == nil {
		t.Error("Replay accepted an empty derivation")
	}
}

func TestSaturateRecursiveDTDIsSound(t *testing.T) {
	// Recursive DTDs get no cardinality folds; the engine must neither
	// hang nor refute.
	d := dtd.New("r")
	d.Define("r", contentmodel.Ref("a"))
	d.Define("a", contentmodel.Opt(contentmodel.Ref("a")), "x")
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	set := &constraint.Set{}
	set.AddKey(constraint.Key{Target: constraint.Target{Type: "a", Attrs: []string{"x"}}})
	if err := set.Validate(d); err != nil {
		t.Fatal(err)
	}
	if out := Saturate(d, set); out.Refuted {
		t.Errorf("recursive spec refuted: %v", out.Derivation)
	}
}

func TestInFragment(t *testing.T) {
	// r → (a, b*) with keys on both sides of the inclusion: the shape
	// the completeness argument covers.
	frag := dtd.New("r")
	frag.Define("r", contentmodel.NewSeq(contentmodel.Ref("a"), contentmodel.NewStar(contentmodel.Ref("b"))))
	frag.Define("a", contentmodel.Eps(), "x")
	frag.Define("b", contentmodel.Eps(), "y")
	set := &constraint.Set{}
	set.AddKey(constraint.Key{Target: constraint.Target{Type: "a", Attrs: []string{"x"}}})
	set.AddKey(constraint.Key{Target: constraint.Target{Type: "b", Attrs: []string{"y"}}})
	set.AddInclusion(constraint.Inclusion{
		From: constraint.Target{Type: "b", Attrs: []string{"y"}},
		To:   constraint.Target{Type: "a", Attrs: []string{"x"}},
	})
	if err := set.Validate(frag); err != nil {
		t.Fatal(err)
	}
	if !InFragment(frag, set) {
		t.Error("simple keyed spec not recognized as in-fragment")
	}

	// Removing the source-side key leaves the fragment.
	noFromKey := set.Clone()
	noFromKey.Keys = noFromKey.Keys[:1]
	if InFragment(frag, noFromKey) {
		t.Error("inclusion without a source key accepted into the fragment")
	}

	// A choice makes the DTD leave the fragment.
	choice := dtd.New("r")
	choice.Define("r", contentmodel.NewChoice(contentmodel.Ref("a"), contentmodel.Ref("b")))
	choice.Define("a", contentmodel.Eps(), "x")
	choice.Define("b", contentmodel.Eps(), "y")
	if InFragment(choice, &constraint.Set{}) {
		t.Error("choice DTD accepted into the fragment")
	}

	// The library spec uses relative constraints, which the fragment
	// excludes.
	d, lib := loadSpec(t, "library", "library")
	if InFragment(d, lib) {
		t.Error("relative library constraints accepted into the fragment")
	}
}

// TestFragmentRefutation derives a contradiction inside the documented
// fragment: r → (a, b, b) forces count(b) = 2 and count(a) = 1, and a
// keyed foreign key b.y ⊆ a.x forces count(b) ≤ count(a).
func TestFragmentRefutation(t *testing.T) {
	d, set := fragmentRefutationSpec(t)
	if !InFragment(d, set) {
		t.Fatal("expected the spec to be in the documented fragment")
	}
	requireRefuted(t, d, set)

	// The reversed inclusion (a.x ⊆ b.y) asks the single a value to
	// appear among the two b values — satisfiable, so no refutation.
	rev := &constraint.Set{}
	rev.AddKey(constraint.Key{Target: constraint.Target{Type: "a", Attrs: []string{"x"}}})
	rev.AddKey(constraint.Key{Target: constraint.Target{Type: "b", Attrs: []string{"y"}}})
	rev.AddForeignKey(constraint.Inclusion{
		From: constraint.Target{Type: "a", Attrs: []string{"x"}},
		To:   constraint.Target{Type: "b", Attrs: []string{"y"}},
	})
	if err := rev.Validate(d); err != nil {
		t.Fatal(err)
	}
	if !InFragment(d, rev) {
		t.Fatal("expected the reversed spec to be in the documented fragment")
	}
	if out := Saturate(d, rev); out.Refuted {
		t.Errorf("consistent fragment spec refuted: %v", out.Derivation)
	}
}

// TestSaturateBudget: a specification wide enough to make the pairwise
// gap analysis and ≤-closure explode (the Figure 3 reductions build
// hundreds of types) must exhaust the work budget in bounded time
// instead of spinning, and must report the exhaustion so callers do not
// read the non-refutation as a fragment consistency proof.
func TestSaturateBudget(t *testing.T) {
	d, set := budgetSpec(t, "*")
	start := time.Now()
	out := Saturate(d, set)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("budgeted saturation took %s", elapsed)
	}
	if !out.Exhausted {
		t.Fatalf("wide spec saturated to fixpoint (facts=%d); expected the work budget to trip", out.Facts)
	}
	if out.Refuted {
		t.Fatalf("consistent wide spec refuted")
	}
}

// budgetSpec is a consistent specification wide enough to exhaust the
// work budget: a root with 200 child types, each keyed, and each
// occurring with the given multiplicity suffix ("*", or "" for exactly
// once).
func budgetSpec(t *testing.T, mult string) (*dtd.DTD, *constraint.Set) {
	t.Helper()
	var src strings.Builder
	src.WriteString("<!ELEMENT root (")
	const n = 200
	for i := 0; i < n; i++ {
		if i > 0 {
			src.WriteString(", ")
		}
		fmt.Fprintf(&src, "t%d%s", i, mult)
	}
	src.WriteString(")>\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, "<!ELEMENT t%d EMPTY>\n<!ATTLIST t%d id CDATA #REQUIRED>\n", i, i)
	}
	d := dtd.MustParse(src.String())
	set := &constraint.Set{}
	for i := 0; i < n; i++ {
		set.AddKey(constraint.Key{Target: constraint.Target{
			Type: fmt.Sprintf("t%d", i), Attrs: []string{"id"},
		}})
	}
	if err := set.Validate(d); err != nil {
		t.Fatal(err)
	}
	return d, set
}

// fragmentRefutationSpec is the fragment contradiction of
// TestFragmentRefutation: r → (a, b, b) with keys on a.x and b.y and
// the foreign key b.y ⊆ a.x.
func fragmentRefutationSpec(t *testing.T) (*dtd.DTD, *constraint.Set) {
	t.Helper()
	d := dtd.New("r")
	d.Define("r", contentmodel.NewSeq(
		contentmodel.Ref("a"),
		contentmodel.Ref("b"),
		contentmodel.Ref("b"),
	))
	d.Define("a", contentmodel.Eps(), "x")
	d.Define("b", contentmodel.Eps(), "y")
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	set := &constraint.Set{}
	set.AddKey(constraint.Key{Target: constraint.Target{Type: "a", Attrs: []string{"x"}}})
	set.AddKey(constraint.Key{Target: constraint.Target{Type: "b", Attrs: []string{"y"}}})
	set.AddForeignKey(constraint.Inclusion{
		From: constraint.Target{Type: "b", Attrs: []string{"y"}},
		To:   constraint.Target{Type: "a", Attrs: []string{"x"}},
	})
	if err := set.Validate(d); err != nil {
		t.Fatal(err)
	}
	return d, set
}

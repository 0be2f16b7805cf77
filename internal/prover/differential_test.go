// Differential soundness harness: the prover and the full decision
// procedure are implemented independently (rule saturation vs linear
// programming over cardinality vectors), so running both over the same
// random specifications and demanding agreement catches unsound rules
// and completeness gaps that unit tests of either side would miss.
//
// Three properties, per the package contract:
//
//  1. Soundness: whenever Saturate refutes, the full check must agree
//     the spec is inconsistent, and the derivation must replay.
//  2. Completeness on the fragment: when the spec lies in the
//     documented fragment and saturation ran to fixpoint without
//     refuting, the full check must find the spec consistent.
//  3. Minimality: every unsat core reported by Explain survives the
//     single-removal test — the core is inconsistent, and dropping any
//     one member (where the drop keeps Σ well-formed) is not.
//
// The harness lives in an external test package so it can import the
// consistency package, which itself imports the prover.
package prover_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/consistency"
	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/prover"
)

// specCount is the number of random specs each direction draws; the
// issue's target is 1,000, trimmed under -short.
func specCount(t *testing.T) int {
	if testing.Short() {
		return 200
	}
	return 1000
}

// randomSpec draws one random DTD plus a well-formed random constraint
// set over its attributes, in the same shape the certificate fuzz test
// uses. Returns ok=false when the drawn set fails Validate (e.g. a key
// on an attribute-free DTD region).
func randomSpec(rng *rand.Rand) (*dtd.DTD, *constraint.Set, bool) {
	opts := dtd.RandomOptions{
		Types:          2 + rng.Intn(5),
		MaxAttrs:       2,
		MaxExprSize:    5,
		AllowStar:      rng.Intn(2) == 0,
		AllowRecursion: rng.Intn(4) == 0,
		AllowText:      rng.Intn(3) == 0,
	}
	d := dtd.Random(rng, opts)
	var typed []string
	for _, name := range d.Names {
		if len(d.Attrs(name)) > 0 {
			typed = append(typed, name)
		}
	}
	set := &constraint.Set{}
	if len(typed) > 0 {
		target := func() constraint.Target {
			typ := typed[rng.Intn(len(typed))]
			attrs := d.Attrs(typ)
			return constraint.Target{Type: typ, Attrs: []string{attrs[rng.Intn(len(attrs))]}}
		}
		context := func() string {
			if rng.Intn(2) == 0 {
				return ""
			}
			return d.Names[rng.Intn(len(d.Names))]
		}
		for i, n := 0, rng.Intn(4); i < n; i++ {
			set.AddKey(constraint.Key{Context: context(), Target: target()})
		}
		for i, n := 0, rng.Intn(3); i < n; i++ {
			ctx := context()
			set.AddForeignKey(constraint.Inclusion{Context: ctx, From: target(), To: target()})
			if rng.Intn(3) == 0 {
				last := set.Incls[len(set.Incls)-1]
				set.AddKey(constraint.Key{Context: ctx, Target: last.From})
			}
		}
	}
	return d, set, set.Validate(d) == nil
}

// TestDifferentialRefutationSound: a prover refutation is a theorem,
// so the independent decision procedure must never contradict it, and
// the derivation must replay step by step. Check may still come back
// Unknown — random specs can land in the undecidable relative regime
// where its bounded search is incomplete and the prover is strictly
// stronger — but a Consistent verdict against a refutation means one
// of the two is broken.
func TestDifferentialRefutationSound(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	opts := consistency.Options{SkipLint: true, SkipWitness: true, SkipCertificate: true}
	valid, refuted, confirmed := 0, 0, 0
	for i := 0; i < specCount(t); i++ {
		d, set, ok := randomSpec(rng)
		if !ok {
			continue
		}
		valid++
		out := prover.Saturate(d, set)
		if !out.Refuted {
			continue
		}
		refuted++
		if err := prover.Replay(d, set, out.Derivation); err != nil {
			t.Fatalf("spec %d: refutation derivation does not replay: %v\nDTD:\n%s\nΣ:\n%s",
				i, err, d, set)
		}
		res, err := consistency.Check(d, set, opts)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if res.Verdict == consistency.Consistent {
			t.Fatalf("spec %d: prover refuted but Check says consistent (method %s)\nDTD:\n%s\nΣ:\n%s",
				i, res.Method, d, set)
		}
		if res.Verdict == consistency.Inconsistent {
			confirmed++
		}
	}
	if refuted == 0 {
		t.Fatalf("no prover refutations across %d valid random specs; harness exercises nothing", valid)
	}
	if confirmed == 0 {
		t.Fatalf("none of %d refutations was confirmed by a definitive Check verdict", refuted)
	}
	t.Logf("%d valid specs, %d prover refutations, %d confirmed inconsistent, rest undecided",
		valid, refuted, confirmed)
}

// TestDifferentialAnalysisReuse: on random specs, one shared Analysis
// saturating every well-formed constraint subset matches a fresh
// Saturate per subset — the minimizer's reuse pattern, over DTD shapes
// (recursion, choices, text) the fixed fixtures do not cover.
func TestDifferentialAnalysisReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	runs := 0
	for i := 0; i < specCount(t)/2; i++ {
		d, set, ok := randomSpec(rng)
		if !ok {
			continue
		}
		a := prover.Analyze(d)
		for mask := uint64(0); mask < 1<<prover.ConstraintCount(set); mask++ {
			sub := prover.SubsetOf(d, set, mask)
			if sub == nil {
				continue
			}
			runs++
			if got, want := a.Saturate(sub), prover.Saturate(d, sub); !reflect.DeepEqual(got, want) {
				t.Fatalf("spec %d, subset %b: shared-Analysis outcome differs:\n got %+v\nwant %+v\nDTD:\n%s\nΣ:\n%s",
					i, mask, got, want, d, sub)
			}
		}
	}
	if runs == 0 {
		t.Fatal("no well-formed subsets drawn")
	}
}

// fragmentSpec draws a spec inside the prover's completeness fragment:
// a non-recursive, choice-free, duplicate-free DTD (a tree of types,
// each child referenced from exactly one parent model as up to two
// bare occurrences plus at most one star), two attributes everywhere,
// unary absolute keys, and inclusions whose two sides both carry
// covering keys.
func fragmentSpec(rng *rand.Rand) (*dtd.DTD, *constraint.Set) {
	n := 2 + rng.Intn(5)
	d := dtd.New("t0")
	children := make(map[int][]int)
	for i := 1; i < n; i++ {
		parent := rng.Intn(i)
		children[parent] = append(children[parent], i)
	}
	var src []byte
	name := func(i int) string { return string(rune('t')) + string(rune('0'+i)) }
	for i := 0; i < n; i++ {
		model := "EMPTY"
		if kids := children[i]; len(kids) > 0 {
			model = "("
			for j, k := range kids {
				if j > 0 {
					model += ", "
				}
				bare := rng.Intn(3)
				star := rng.Intn(2) == 1
				if bare == 0 && !star {
					bare = 1
				}
				for b := 0; b < bare; b++ {
					if b > 0 {
						model += ", "
					}
					model += name(k)
				}
				if star {
					if bare > 0 {
						model += ", "
					}
					model += name(k) + "*"
				}
			}
			model += ")"
		}
		src = append(src, []byte("<!ELEMENT "+name(i)+" "+model+">\n")...)
		src = append(src, []byte("<!ATTLIST "+name(i)+" a CDATA #REQUIRED b CDATA #REQUIRED>\n")...)
	}
	d = dtd.MustParse(string(src))

	set := &constraint.Set{}
	attrs := []string{"a", "b"}
	var keyed []constraint.Target
	seen := map[string]bool{}
	for i, k := 0, 1+rng.Intn(4); i < k; i++ {
		tgt := constraint.Target{
			Type:  name(rng.Intn(n)),
			Attrs: []string{attrs[rng.Intn(2)]},
		}
		if seen[tgt.Type+"."+tgt.Attrs[0]] {
			continue
		}
		seen[tgt.Type+"."+tgt.Attrs[0]] = true
		set.AddKey(constraint.Key{Target: tgt})
		keyed = append(keyed, tgt)
	}
	for i, k := 0, rng.Intn(3); i < k && len(keyed) >= 2; i++ {
		from := keyed[rng.Intn(len(keyed))]
		to := keyed[rng.Intn(len(keyed))]
		set.AddInclusion(constraint.Inclusion{From: from, To: to})
	}
	return d, set
}

// TestDifferentialFragmentComplete: on the fragment, a saturation that
// ran to fixpoint without refuting is a consistency proof, so the full
// check must agree.
func TestDifferentialFragmentComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	opts := consistency.Options{SkipLint: true, SkipWitness: true, SkipCertificate: true}
	proved, refuted := 0, 0
	for i := 0; i < specCount(t); i++ {
		d, set := fragmentSpec(rng)
		if err := set.Validate(d); err != nil {
			t.Fatalf("spec %d: fragment generator built an ill-formed set: %v", i, err)
		}
		out := prover.Saturate(d, set)
		if !out.Fragment {
			t.Fatalf("spec %d: fragment generator left the fragment\nDTD:\n%s\nΣ:\n%s", i, d, set)
		}
		res, err := consistency.Check(d, set, opts)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		switch {
		case out.Refuted:
			refuted++
			if res.Verdict == consistency.Consistent {
				t.Fatalf("spec %d: prover refuted but Check says consistent\nDTD:\n%s\nΣ:\n%s",
					i, d, set)
			}
		case !out.Exhausted:
			proved++
			if res.Verdict != consistency.Consistent {
				t.Fatalf("spec %d: prover proved consistency on the fragment but Check says %v (method %s)\nDTD:\n%s\nΣ:\n%s",
					i, res.Verdict, res.Method, d, set)
			}
		}
	}
	if proved == 0 {
		t.Fatal("no fragment consistency proofs; harness exercises nothing")
	}
	t.Logf("%d consistency proofs and %d refutations on the fragment, all confirmed", proved, refuted)
}

// TestDifferentialCoreMinimality: every core Explain reports over
// random inconsistent specs passes the single-removal test.
func TestDifferentialCoreMinimality(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	opts := consistency.Options{SkipWitness: true, SkipCertificate: true}
	want := 25
	if testing.Short() {
		want = 8
	}
	cores := 0
	for i := 0; i < specCount(t)*4 && cores < want; i++ {
		d, set, ok := randomSpec(rng)
		if !ok || !d.Satisfiable() {
			continue
		}
		res, err := consistency.Check(d, set, opts)
		if err != nil || res.Verdict != consistency.Inconsistent {
			continue
		}
		ex, err := consistency.Explain(d, set, opts)
		if err != nil {
			t.Fatalf("spec %d: Explain: %v", i, err)
		}
		if len(ex.Core) == 0 {
			t.Fatalf("spec %d: inconsistent satisfiable spec explained without a core\nDTD:\n%s\nΣ:\n%s",
				i, d, set)
		}
		requireSingleRemovalMinimal(t, d, set, ex.Core)
		cores++
	}
	if cores < want {
		t.Fatalf("only %d inconsistent specs found, want %d", cores, want)
	}
	t.Logf("%d cores verified single-removal minimal", cores)
}

// requireSingleRemovalMinimal re-checks the minimality contract from
// outside the consistency package: the core subset is inconsistent and
// no proper single-removal subset (that stays well-formed) is.
func requireSingleRemovalMinimal(t *testing.T, d *dtd.DTD, set *constraint.Set, core []int) {
	t.Helper()
	in := func(core []int, idx int) bool {
		for _, c := range core {
			if c == idx {
				return true
			}
		}
		return false
	}
	build := func(skip int) *constraint.Set {
		out := &constraint.Set{}
		for i, k := range set.Keys {
			if i != skip && in(core, i) {
				out.AddKey(k)
			}
		}
		for i, c := range set.Incls {
			if len(set.Keys)+i != skip && in(core, len(set.Keys)+i) {
				out.AddInclusion(c)
			}
		}
		return out
	}
	opts := consistency.Options{SkipWitness: true, SkipCertificate: true}
	full := build(-1)
	if err := full.Validate(d); err != nil {
		t.Fatalf("core subset is not well-formed: %v", err)
	}
	res, err := consistency.Check(d, full, opts)
	if err != nil || res.Verdict != consistency.Inconsistent {
		t.Fatalf("core subset is not inconsistent: %v %v\nDTD:\n%s\ncore Σ:\n%s", res.Verdict, err, d, full)
	}
	for _, c := range core {
		reduced := build(c)
		if reduced.Validate(d) != nil {
			continue // removal broke well-formedness; minimality is vacuous here
		}
		res, err := consistency.Check(d, reduced, opts)
		if err != nil {
			t.Fatalf("reduced core check: %v", err)
		}
		if res.Verdict == consistency.Inconsistent {
			t.Fatalf("core is not minimal: still inconsistent without member %d\nDTD:\n%s\nΣ:\n%s",
				c, d, set)
		}
	}
}

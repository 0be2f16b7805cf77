package scope

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/constraint"
	"repro/internal/dtd"
)

// refHasPath is the per-query DFS ConflictingPairs ran before it
// memoized one descendant set per source type.
func refHasPath(d *dtd.DTD, a, b string) bool {
	seen := map[string]bool{}
	var walk func(string) bool
	walk = func(name string) bool {
		e := d.Element(name)
		if e == nil || e.Content == nil {
			return false
		}
		for _, ref := range e.Content.Alphabet() {
			if ref == b {
				return true
			}
			if !seen[ref] {
				seen[ref] = true
				if walk(ref) {
					return true
				}
			}
		}
		return false
	}
	return walk(a)
}

// refConflictingPairs is the former HasPath-based ConflictingPairs,
// kept as the differential oracle. It reports a pair twice when both
// sides of the witnessing inclusion lie below the inner context.
func refConflictingPairs(d *dtd.DTD, set *constraint.Set) []ConflictingPair {
	restricted := RestrictedTypes(d, set)
	contexts := map[string]bool{}
	for _, k := range set.Keys {
		contexts[NormalizeContext(k.Context, d.Root)] = true
	}
	for _, c := range set.Incls {
		contexts[NormalizeContext(c.Context, d.Root)] = true
	}
	var out []ConflictingPair
	for t1 := range restricted {
		for t2 := range contexts {
			if t1 == t2 || !refHasPath(d, t1, t2) {
				continue
			}
			for _, c := range set.Incls {
				if NormalizeContext(c.Context, d.Root) != t1 {
					continue
				}
				for _, t3 := range []string{c.From.Type, c.To.Type} {
					if t3 != t2 && refHasPath(d, t2, t3) {
						out = append(out, ConflictingPair{Outer: t1, Inner: t2, Via: c.String()})
					}
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
	return out
}

// randomRelativeSet draws relative keys and foreign keys with random
// context types, including the occasional repeated constraint.
func randomRelativeSet(rng *rand.Rand, d *dtd.DTD) *constraint.Set {
	type ta struct{ typ, attr string }
	var tas []ta
	for _, name := range d.Names {
		for _, a := range d.Attrs(name) {
			tas = append(tas, ta{name, a})
		}
	}
	set := &constraint.Set{}
	if len(tas) == 0 {
		return set
	}
	ctx := func() string {
		if rng.Intn(4) == 0 {
			return ""
		}
		return d.Names[rng.Intn(len(d.Names))]
	}
	for i := rng.Intn(3); i > 0; i-- {
		x := tas[rng.Intn(len(tas))]
		set.AddKey(constraint.Key{Context: ctx(), Target: constraint.Target{Type: x.typ, Attrs: []string{x.attr}}})
	}
	for i := rng.Intn(5); i > 0; i-- {
		from := tas[rng.Intn(len(tas))]
		to := tas[rng.Intn(len(tas))]
		c := constraint.Inclusion{
			Context: ctx(),
			From:    constraint.Target{Type: from.typ, Attrs: []string{from.attr}},
			To:      constraint.Target{Type: to.typ, Attrs: []string{to.attr}},
		}
		set.AddForeignKey(c)
		if rng.Intn(6) == 0 {
			set.AddInclusion(c)
		}
	}
	return set
}

func TestConflictingPairsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	conflicts := 0
	for trial := 0; trial < 1500; trial++ {
		d := dtd.Random(rng, dtd.RandomOptions{
			Types:          2 + rng.Intn(7),
			MaxAttrs:       1 + rng.Intn(2),
			MaxExprSize:    1 + rng.Intn(8),
			AllowStar:      rng.Intn(2) == 0,
			AllowRecursion: rng.Intn(3) == 0,
		})
		set := randomRelativeSet(rng, d)
		got := ConflictingPairs(d, set)
		want := slices.Compact(refConflictingPairs(d, set))
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		conflicts++
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ConflictingPairs = %v, want %v\nDTD:\n%s\nΣ:\n%s", got, want, d, set)
		}
	}
	if conflicts < 100 {
		t.Fatalf("only %d of the random specs had a conflicting pair; the generator no longer exercises the comparison", conflicts)
	}
}

// TestConflictingPairsOncePerWitness is the regression for a pair
// reported once per side of its witnessing inclusion: both c.y and
// c.x lie below the inner context b, so the old loop emitted
// {a b a(c.y ⊆ c.x)} twice.
func TestConflictingPairsOncePerWitness(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT r (a*)>
<!ELEMENT a (b*)>
<!ELEMENT b (c*)>
<!ELEMENT c EMPTY>
<!ATTLIST c x CDATA #REQUIRED y CDATA #REQUIRED>
<!ATTLIST b k CDATA #REQUIRED>
`)
	set, err := constraint.ParseSet("b(c.y -> c)\na(c.x -> c)\na(c.y ⊆ c.x)")
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(d); err != nil {
		t.Fatal(err)
	}
	want := []ConflictingPair{{Outer: "a", Inner: "b", Via: "a(c.y ⊆ c.x)"}}
	if got := ConflictingPairs(d, set); !reflect.DeepEqual(got, want) {
		t.Errorf("ConflictingPairs = %v, want %v", got, want)
	}
	if ref := refConflictingPairs(d, set); len(ref) != 2 {
		t.Errorf("reference reports %d entries, want the 2 duplicates this test guards against", len(ref))
	}
	if Hierarchical(d, set) {
		t.Error("a spec with a conflicting pair reported hierarchical")
	}
}

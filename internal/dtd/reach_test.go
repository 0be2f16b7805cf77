package dtd

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/contentmodel"
)

// The reference implementations below are the Alphabet-based walks
// Validate, Reachable and the former HasPath used before they moved
// onto the expression walk. They stay here only as differential
// oracles: the new walks must report the same sets and the same first
// error text.

func refValidate(d *DTD) error {
	if _, ok := d.Elements[d.Root]; !ok {
		return fmt.Errorf("dtd: root type %q is not defined", d.Root)
	}
	for _, name := range d.Names {
		e := d.Elements[name]
		if e.Content == nil {
			return fmt.Errorf("dtd: element type %q has no content model", name)
		}
		for _, ref := range e.Content.Alphabet() {
			if _, ok := d.Elements[ref]; !ok {
				return fmt.Errorf("dtd: element type %q references undefined type %q", name, ref)
			}
			if ref == d.Root {
				return fmt.Errorf("dtd: root type %q occurs in the content model of %q", d.Root, name)
			}
		}
	}
	reach := refReachable(d)
	for _, name := range d.Names {
		if !reach[name] {
			return fmt.Errorf("dtd: element type %q is not connected to the root", name)
		}
	}
	return nil
}

func refReachable(d *DTD) map[string]bool {
	seen := map[string]bool{}
	var walk func(string)
	walk = func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		for _, ref := range d.children(name) {
			walk(ref)
		}
	}
	walk(d.Root)
	return seen
}

func refHasPath(d *DTD, a, b string) bool {
	seen := map[string]bool{}
	var walk func(string) bool
	walk = func(name string) bool {
		for _, ref := range d.children(name) {
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

func randomOpts(rng *rand.Rand) RandomOptions {
	return RandomOptions{
		Types:          1 + rng.Intn(8),
		MaxAttrs:       rng.Intn(3),
		MaxExprSize:    1 + rng.Intn(10),
		AllowStar:      rng.Intn(2) == 0,
		AllowRecursion: rng.Intn(2) == 0,
		AllowText:      rng.Intn(2) == 0,
	}
}

// corrupt splices references to undefined types (and sometimes the
// root) into random content models, so Validate has several candidate
// errors to choose from.
func corrupt(rng *rand.Rand, d *DTD) {
	bad := []string{"zz", "a", "e", "e00", "m", d.Root}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		host := d.Names[rng.Intn(len(d.Names))]
		he := d.Elements[host]
		ref := contentmodel.Ref(bad[rng.Intn(len(bad))])
		if rng.Intn(2) == 0 {
			d.Define(host, contentmodel.NewSeq(ref, he.Content), he.Attrs...)
		} else {
			d.Define(host, contentmodel.NewChoice(he.Content, contentmodel.NewStar(ref)), he.Attrs...)
		}
	}
}

func TestBelowMatchesHasPath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		d := Random(rng, randomOpts(rng))
		if trial%3 == 0 {
			corrupt(rng, d)
		}
		names := append(append([]string(nil), d.Names...), "zz", "nope")
		for _, a := range names {
			below := d.Below(a)
			for _, b := range names {
				if got, want := below[b], refHasPath(d, a, b); got != want {
					t.Fatalf("Below(%s)[%s] = %v, HasPath = %v\n%s", a, b, got, want, d)
				}
			}
			for b := range below {
				if !refHasPath(d, a, b) {
					t.Fatalf("Below(%s) holds %s without a path\n%s", a, b, d)
				}
			}
		}
		got, want := d.Reachable(), refReachable(d)
		if len(got) != len(want) {
			t.Fatalf("Reachable = %v, want %v\n%s", got, want, d)
		}
		for n := range want {
			if !got[n] {
				t.Fatalf("Reachable misses %s\n%s", n, d)
			}
		}
	}
}

func TestValidateErrorTexts(t *testing.T) {
	// Each DTD lists (name, content model) pairs; the first is the root.
	fixed := [][]string{
		{"r", "(x, b, a)", "b", "(q | c)", "c", "EMPTY"},
		{"r", "(b*, zz)", "b", "(r, a)"},
		{"r", "(b)", "b", "(c | r | a)"},
		{"r", "(b)", "b", "EMPTY", "lonely", "EMPTY"},
	}
	for _, decls := range fixed {
		d := New(decls[0])
		for i := 0; i < len(decls); i += 2 {
			d.Define(decls[i], contentmodel.MustParse(decls[i+1]))
		}
		got, want := fmt.Sprint(d.Validate()), fmt.Sprint(refValidate(d))
		if got != want || want == "<nil>" {
			t.Errorf("%v: Validate = %s, want %s", decls, got, want)
		}
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 500; trial++ {
		d := Random(rng, randomOpts(rng))
		if trial%5 != 0 {
			corrupt(rng, d)
		}
		got, want := fmt.Sprint(d.Validate()), fmt.Sprint(refValidate(d))
		if got != want {
			t.Fatalf("Validate = %s, want %s\n%s", got, want, d)
		}
	}
}

func BenchmarkValidate(b *testing.B) {
	d := MustParse(schoolDTD)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := d.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

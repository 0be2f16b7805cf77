package speclint_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/contentmodel"
	"repro/internal/dtd"
	"repro/internal/experiments"
	"repro/internal/speclint"
)

// refOccurrable is the occurrability fixpoint as first written: one
// occursIn walk of the parent's content model per candidate symbol.
// It is the oracle for the single-walk DTDFacts.Occurrable.
func refOccurrable(d *dtd.DTD) map[string]bool {
	occ := map[string]bool{}
	prod := d.Productive()
	ok := func(y string) bool { return prod[y] }
	if prod[d.Root] {
		occ[d.Root] = true
		queue := []string{d.Root}
		for len(queue) > 0 {
			p := queue[0]
			queue = queue[1:]
			content := d.Element(p).Content
			for _, y := range content.Alphabet() {
				if !occ[y] && occursIn(content, y, ok) {
					occ[y] = true
					queue = append(queue, y)
				}
			}
		}
	}
	return occ
}

// occursIn reports whether e can match a word that contains the symbol
// y and whose element symbols all satisfy ok.
func occursIn(e *contentmodel.Expr, y string, ok func(string) bool) bool {
	switch e.Kind {
	case contentmodel.Empty, contentmodel.Text:
		return false
	case contentmodel.Name:
		return e.Ref == y && ok(y)
	case contentmodel.Seq:
		any := false
		for _, k := range e.Kids {
			if !k.MatchSubset(ok) {
				return false
			}
			if occursIn(k, y, ok) {
				any = true
			}
		}
		return any
	case contentmodel.Choice:
		for _, k := range e.Kids {
			if occursIn(k, y, ok) {
				return true
			}
		}
		return false
	case contentmodel.Star:
		return occursIn(e.Kids[0], y, ok)
	}
	return false
}

// TestOccurrableMatchesReference compares the single-walk Occurrable
// with the per-symbol fixpoint on the testdata DTDs, the Figure 3/4
// and Theorem 3.5 families, and random DTDs — recursive and
// unproductive ones included.
func TestOccurrableMatchesReference(t *testing.T) {
	check := func(label string, d *dtd.DTD) {
		t.Helper()
		f := speclint.NewDTDFacts(d)
		if got, want := f.Productive(), d.Productive(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Productive = %v, dtd.Productive %v\n%s", label, got, want, d)
		}
		if got, want := f.Occurrable(), refOccurrable(d); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Occurrable = %v, reference %v\n%s", label, got, want, d)
		}
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.dtd"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata DTDs: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		d, err := dtd.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		check(f, d)
	}
	rng := rand.New(rand.NewSource(7))
	families := []experiments.Instance{
		experiments.Fig3Unary(rng, 4),
		experiments.Fig3Regular(rng, 2),
		experiments.Fig3MultiMulti("sat"),
		experiments.Fig3MultiMulti("unsat"),
		experiments.Fig4Diophantine("linear-sat"),
		experiments.Fig4Diophantine("linear-unsat"),
		experiments.Fig4Hierarchical(3, false),
		experiments.Fig4Hierarchical(4, true),
		experiments.Fig4DLocal(rng, 3),
		experiments.Thm35SubsetSum(rng, 4, 64),
		experiments.Thm35Tractable(32, false),
		experiments.Thm35Tractable(512, true),
	}
	if in, ok := experiments.Fig3PDE(rng, 3); ok {
		families = append(families, in)
	}
	for i, in := range families {
		check("family "+strings.Repeat("#", i+1), in.D)
	}
	unproductive := 0
	for i := 0; i < 1500; i++ {
		d := dtd.Random(rng, dtd.RandomOptions{
			Types:          2 + rng.Intn(9),
			MaxExprSize:    1 + rng.Intn(8),
			AllowStar:      i%3 != 0,
			AllowRecursion: i%2 == 0,
			AllowText:      i%5 == 0,
		})
		if !d.Satisfiable() || len(d.Productive()) < len(d.Names) {
			unproductive++
		}
		check("random", d)
	}
	if unproductive == 0 {
		t.Fatal("the random DTDs include no unproductive type; the harness misses that case")
	}
}

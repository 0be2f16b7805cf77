package constraint_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/experiments"
	"repro/internal/fuzzcorpus"
)

// setSources returns constraint sets in surface syntax: the testdata
// specifications, the paper's families, and the constraint arguments
// of the committed FuzzConstraintParse, FuzzSpecParse and FuzzSpecLint
// corpora.
func setSources(t *testing.T) []string {
	t.Helper()
	var out []string
	keys, err := filepath.Glob("../../testdata/*.keys")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range keys {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	for _, in := range experiments.Samples(rand.New(rand.NewSource(1))) {
		out = append(out, in.Set.String())
	}
	for target, arg := range map[string]int{"FuzzConstraintParse": 0, "FuzzSpecParse": 1, "FuzzSpecLint": 1} {
		corpus, err := fuzzcorpus.Load("../../testdata/fuzz/" + target)
		if err != nil {
			t.Fatal(err)
		}
		for _, args := range corpus {
			out = append(out, args[arg])
		}
	}
	return out
}

// constraintTokens are the edits the differential test splices into
// its sources.
var constraintTokens = []string{
	"->", "→", "⊆", "<=", "<", "-", ".", "[", "]", ",", "(", ")", "_*", "_", "*",
	"ε", "∪", "|", " ", "\n", "#", "//", "a", "b.x", "ctx(", "\xff", "\xe2", "⊆⊆",
}

// TestParseMatchesReference pins the one-scan parser to the parser it
// replaced: on every line, whole set and seeded mutation, both accept
// with equal constraints or reject with equal errors.
func TestParseMatchesReference(t *testing.T) {
	sets := setSources(t)
	var lines []string
	for _, set := range sets {
		lines = append(lines, strings.Split(set, "\n")...)
	}
	rng := rand.New(rand.NewSource(2))
	lines = append(lines, fuzzcorpus.Mutate(rng, lines, constraintTokens, 20000)...)
	for _, line := range lines {
		got, gerr := constraint.Parse(line)
		want, werr := constraint.RefParse(line)
		switch {
		case gerr != nil || werr != nil:
			if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
				t.Fatalf("Parse(%q): error %v, reference %v", line, gerr, werr)
			}
		case !reflect.DeepEqual(got, want) || got.String() != want.String():
			t.Fatalf("Parse(%q) = %#v, reference %#v", line, got, want)
		}
	}
	sets = append(sets, fuzzcorpus.Mutate(rng, sets, constraintTokens, 2000)...)
	for _, src := range sets {
		got, gerr := constraint.ParseSet(src)
		want, werr := constraint.RefParseSet(src)
		switch {
		case gerr != nil || werr != nil:
			if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
				t.Fatalf("ParseSet(%q): error %v, reference %v", src, gerr, werr)
			}
		case !reflect.DeepEqual(got, want):
			t.Fatalf("ParseSet(%q) = %v, reference %v", src, got, want)
		}
	}
}

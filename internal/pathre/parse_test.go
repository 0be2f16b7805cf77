package pathre_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fuzzcorpus"
	"repro/internal/pathre"
)

// pathSources returns path expressions in surface syntax: the
// committed FuzzPathREParse corpus, and both sides of every constraint
// of the testdata specifications and of the paper's families.
func pathSources(t *testing.T) []string {
	t.Helper()
	corpus, err := fuzzcorpus.Load("../../testdata/fuzz/FuzzPathREParse")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, args := range corpus {
		out = append(out, args...)
	}
	keys, err := filepath.Glob("../../testdata/*.keys")
	if err != nil {
		t.Fatal(err)
	}
	var sets []string
	for _, name := range keys {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, string(b))
	}
	for _, in := range experiments.Samples(rand.New(rand.NewSource(1))) {
		sets = append(sets, in.Set.String())
	}
	sep := strings.NewReplacer("->", "\n", "→", "\n", "⊆", "\n", "<=", "\n")
	for _, set := range sets {
		for _, side := range strings.Split(sep.Replace(set), "\n") {
			if side = strings.TrimSpace(side); side != "" && !strings.HasPrefix(side, "#") {
				out = append(out, side)
			}
		}
	}
	return out
}

// pathTokens are the edits the differential test splices into its
// sources: every operator in both spellings, names, white space, and
// bytes that are not ASCII or not UTF-8 at all.
var pathTokens = []string{
	".", "∪", "|", "*", "(", ")", "ε", "_", "_*", " ", "\t", "a", "b_c", "x-1",
	"∪∪", "ε*", "\xff", "\xe2\x88", "ü", "→", "[", ",",
}

// TestParseMatchesReference pins the byte-indexed parser to the
// rune-slice parser it replaced: on every source and seeded mutation,
// both accept with equal expressions or reject with equal errors,
// offsets counted in runes.
func TestParseMatchesReference(t *testing.T) {
	srcs := pathSources(t)
	srcs = append(srcs, fuzzcorpus.Mutate(rand.New(rand.NewSource(2)), srcs, pathTokens, 20000)...)
	for _, src := range srcs {
		got, gerr := pathre.Parse(src)
		want, werr := pathre.RefParse(src)
		switch {
		case gerr != nil || werr != nil:
			if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
				t.Fatalf("Parse(%q): error %v, reference %v", src, gerr, werr)
			}
		case !got.Equal(want) || got.String() != want.String():
			t.Fatalf("Parse(%q) = %s, reference %s", src, got, want)
		}
	}
}

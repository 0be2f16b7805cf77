package contentmodel_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/contentmodel"
	"repro/internal/dtd"
	"repro/internal/experiments"
)

// referenceModels gathers the content models of the testdata DTDs, of
// seeded Figure 3/4 and Theorem 3.5 draws, and of n random DTDs with
// stars, text, recursion and wide models, plus hand-written models
// that keep the ε and nested-star shapes the combinators simplify
// away.
func referenceModels(t *testing.T, n int) []*contentmodel.Expr {
	t.Helper()
	var out []*contentmodel.Expr
	addDTD := func(d *dtd.DTD) {
		for _, name := range d.Names {
			out = append(out, d.Element(name).Content)
		}
	}
	for _, name := range []string{"library", "school", "geography"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "testdata", name+".dtd"))
		if err != nil {
			t.Fatal(err)
		}
		addDTD(dtd.MustParse(string(src)))
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3; i++ {
		addDTD(experiments.Fig3Unary(rng, 4).D)
		addDTD(experiments.Fig3Regular(rng, 2).D)
		addDTD(experiments.Fig4DLocal(rng, 2).D)
		addDTD(experiments.Thm35SubsetSum(rng, 4, 64).D)
		if in, ok := experiments.Fig3PDE(rng, 3); ok {
			addDTD(in.D)
		}
	}
	for _, kind := range []string{"sat", "unsat", "open"} {
		addDTD(experiments.Fig3MultiMulti(kind).D)
	}
	for _, kind := range []string{"linear-sat", "quadratic"} {
		addDTD(experiments.Fig4Diophantine(kind).D)
	}
	addDTD(experiments.Fig4Hierarchical(3, true).D)
	addDTD(experiments.Thm35Tractable(70, true).D)
	for i := 0; i < n; i++ {
		addDTD(dtd.Random(rng, dtd.RandomOptions{
			Types:          2 + rng.Intn(6),
			MaxExprSize:    2 + rng.Intn(12),
			AllowStar:      rng.Intn(4) != 0,
			AllowRecursion: rng.Intn(3) == 0,
			AllowText:      rng.Intn(2) == 0,
		}))
	}
	a, b := contentmodel.Ref("a"), contentmodel.Ref("b")
	eps := contentmodel.Eps()
	raw := func(k contentmodel.Kind, kids ...*contentmodel.Expr) *contentmodel.Expr {
		return &contentmodel.Expr{Kind: k, Kids: kids}
	}
	out = append(out,
		eps,
		raw(contentmodel.Seq, eps, a, eps),
		raw(contentmodel.Choice, a),
		raw(contentmodel.Star, raw(contentmodel.Star, a)),
		raw(contentmodel.Star, raw(contentmodel.Choice, a, eps)),
		raw(contentmodel.Star, raw(contentmodel.Seq, raw(contentmodel.Star, a), raw(contentmodel.Star, b))),
		raw(contentmodel.Seq, raw(contentmodel.Choice, a, raw(contentmodel.Seq, a, b)), raw(contentmodel.Star, b), a),
		raw(contentmodel.Choice, raw(contentmodel.Seq, a, b), raw(contentmodel.Seq, a, raw(contentmodel.Star, a), b), b),
		raw(contentmodel.Seq, contentmodel.PCData(), raw(contentmodel.Star, raw(contentmodel.Choice, contentmodel.PCData(), a))),
	)
	return out
}

// maxOracleWord bounds the words matched against Expr.Match, whose
// derivatives of nested stars grow exponentially with the word: on
// ((e5*, e5*)* | (e3, e5)*)* a 16-symbol word exhausts gigabytes. The
// wide models' samples are longer; they are matched whole.
const maxOracleWord = 9

// referenceWords draws words to match against e: samples of its
// language, each also with one symbol dropped, inserted, doubled or
// swapped with its neighbour, and random words over its alphabet, the
// text symbol and a symbol it never mentions.
func referenceWords(rng *rand.Rand, e *contentmodel.Expr) [][]string {
	syms := append(e.Alphabet(), contentmodel.TextSymbol, "zz")
	pick := func() string { return syms[rng.Intn(len(syms))] }
	var out [][]string
	for i := 0; i < 6; i++ {
		w := e.Sample(rng, contentmodel.SampleOptions{StarMax: 2})
		if len(w) > maxOracleWord && e.HasStar() {
			continue
		}
		out = append(out, w)
		m := append([]string(nil), w...)
		switch k := rng.Intn(len(m) + 1); rng.Intn(4) {
		case 0:
			if k < len(m) {
				m = append(m[:k], m[k+1:]...)
			}
		case 1:
			m = append(m[:k], append([]string{pick()}, m[k:]...)...)
		case 2:
			if k < len(m) {
				m = append(m[:k], append([]string{m[k]}, m[k:]...)...)
			}
		default:
			if k+1 < len(m) {
				m[k], m[k+1] = m[k+1], m[k]
			}
		}
		out = append(out, m)
	}
	for i := 0; i < 6; i++ {
		w := make([]string, rng.Intn(7))
		for j := range w {
			w[j] = pick()
		}
		out = append(out, w)
	}
	return out
}

// TestAutomatonMatchesDerivatives runs the compiled position automaton
// against Expr.Match, the Brzozowski-derivative matcher it replaced
// in conformance checking, on random words over every reference model:
// both must accept exactly the same words. One automaton serves all
// words of a model, so a run that leaks state into the next is caught.
func TestAutomatonMatchesDerivatives(t *testing.T) {
	n := 1200
	if testing.Short() {
		n = 300
	}
	rng := rand.New(rand.NewSource(11))
	models := referenceModels(t, n)
	words, accepted := 0, 0
	for _, e := range models {
		a := e.Compile()
		for _, w := range referenceWords(rng, e) {
			want := e.Match(w)
			if got := a.Match(w); got != want {
				t.Fatalf("model %s, word %q: automaton %v, derivatives %v", e, w, got, want)
			}
			words++
			if want {
				accepted++
			}
		}
	}
	if accepted == 0 || accepted == words {
		t.Fatalf("word coverage too thin: %d of %d accepted", accepted, words)
	}
	t.Logf("%d models, %d words, %d accepted", len(models), words, accepted)
}

// TestAutomatonStepAllocations pins that a run of a compiled automaton
// allocates nothing: on the 73-name sequence of a wide Thm35Tractable
// root, and on its closure; both automata have more than 64 states.
func TestAutomatonStepAllocations(t *testing.T) {
	in := experiments.Thm35Tractable(70, true)
	seq := in.D.Element(in.D.Root).Content
	for _, e := range []*contentmodel.Expr{seq, contentmodel.NewStar(seq)} {
		a := e.Compile()
		w := e.Sample(rand.New(rand.NewSource(1)), contentmodel.SampleOptions{})
		if allocs := testing.AllocsPerRun(20, func() {
			if !a.Match(w) {
				t.Fatalf("%s: sample rejected", e)
			}
		}); allocs != 0 {
			t.Errorf("%s: a run allocates %.0f times, want 0", e, allocs)
		}
	}
}

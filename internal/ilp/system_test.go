package ilp

import (
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// refNormalizeTerms is normalizeTerms as it was before it sorted and
// merged in place: a map of summed coefficients and a sort.Slice.
func refNormalizeTerms(terms []Term) []Term {
	sum := map[Var]int64{}
	for _, t := range terms {
		sum[t.Var] += t.Coef
	}
	out := make([]Term, 0, len(sum))
	for v, c := range sum {
		if c != 0 {
			out = append(out, Term{Var: v, Coef: c})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Var < out[j].Var })
	return out
}

// TestNormalizeTermsMatchesReference feeds both normalizations random
// rows: short and long (past the insertion-sort cutoff), sorted and
// shuffled, with duplicate variables, zero coefficients and
// cancelling pairs.
func TestNormalizeTermsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(8)
		if i%5 == 0 {
			n = 10 + rng.Intn(60)
		}
		vars := 1 + rng.Intn(2*n+1)
		terms := make([]Term, n)
		for j := range terms {
			terms[j] = Term{Var: Var(rng.Intn(vars)), Coef: int64(rng.Intn(5) - 2)}
		}
		if i%3 == 0 {
			sort.Slice(terms, func(a, b int) bool { return terms[a].Var < terms[b].Var })
		}
		want := refNormalizeTerms(terms)
		got := normalizeTerms(append([]Term(nil), terms...))
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("normalizeTerms(%v) = %v, reference %v", terms, got, want)
		}
	}
}

// TestRowHelpersNormalized: the two-term helpers emit the rows
// AddLinear would normalize to, including the x = x degenerate row.
func TestRowHelpersNormalized(t *testing.T) {
	for _, xy := range [][2]Var{{0, 1}, {1, 0}, {2, 2}} {
		x, y := xy[0], xy[1]
		s := NewSystem()
		for i := 0; i < 3; i++ {
			s.NewVar(string(rune('a' + i)))
		}
		s.AddVarEQ(x, y)
		s.AddVarLE(x, y)
		s.AddConst(x, 3)
		s.AddSumEQ(x, []Var{y, y})
		ref := NewSystem()
		for i := 0; i < 3; i++ {
			ref.NewVar(string(rune('a' + i)))
		}
		ref.AddEQ([]Term{T(1, x), T(-1, y)}, 0)
		ref.AddLE([]Term{T(1, x), T(-1, y)}, 0)
		ref.AddEQ([]Term{T(1, x)}, 3)
		ref.AddEQ([]Term{T(1, x), T(-1, y), T(-1, y)}, 0)
		if got, want := s.String(), ref.String(); got != want {
			t.Errorf("x=%d y=%d: helpers render\n%s\nAddLinear renders\n%s", x, y, got, want)
		}
	}
}

// TestBaseDigestIgnoresAppendedRows: rows and conditionals added after
// MarkBase (cuts, forced zeros, bounds) leave BaseDigest at the digest
// the system had when marked.
func TestBaseDigestIgnoresAppendedRows(t *testing.T) {
	s := NewSystem()
	a, b := s.NewVar("a"), s.NewVar("b")
	s.AddVarLE(a, b)
	s.AddCondVar(a, b)
	s.AddQuad(a, b, b)
	if s.BaseDigest() != s.Digest() {
		t.Fatal("an unmarked system's base digest must be its digest")
	}
	s.MarkBase()
	base := s.Digest()
	s.AddConst(a, 0)
	s.AddCond([]Term{T(1, b)}, []Term{T(1, a)})
	s.AddLE([]Term{T(1, a), T(1, b)}, 4)
	if s.Digest() == base {
		t.Fatal("appended rows must change the full digest")
	}
	if got := s.BaseDigest(); got != base {
		t.Fatalf("BaseDigest = %s after appends, want %s", got, base)
	}
}

// TestNewVarFuncNamesSurviveNewChunks creates enough arena-named
// variables to fill several chunks, one name longer than a chunk among
// them, and checks every name (and the name index) afterwards.
func TestNewVarFuncNamesSurviveNewChunks(t *testing.T) {
	s := NewSystem()
	var want []string
	for i := 0; i < 3000; i++ {
		name := "x(" + strconv.Itoa(i) + ")"
		if i == 1500 {
			name = strings.Repeat("long", maxArena)
		}
		want = append(want, name)
		v := s.NewVarFunc(func(b []byte) []byte { return append(b, name...) })
		if int(v) != i {
			t.Fatalf("variable %d got id %d", i, v)
		}
	}
	for i, name := range want {
		if got := s.Name(Var(i)); got != name {
			t.Fatalf("variable %d is named %.20q, want %.20q", i, got, name)
		}
		if v, ok := s.Lookup(name); !ok || int(v) != i {
			t.Fatalf("Lookup(%.20q) = %d, %v; want %d", name, v, ok, i)
		}
	}
}

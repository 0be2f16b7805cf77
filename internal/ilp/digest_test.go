package ilp

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refString and refDigest are the fmt- and Split-based renderings
// System.String and System.Digest used before they moved to byte
// appends. They stay here as the oracle that keeps every system
// digest (and so every pinned refutation certificate) byte-identical.
func refString(s *System) string {
	var b strings.Builder
	for _, l := range s.Lins {
		fmt.Fprintf(&b, "%s %s %d\n", refTerms(s, l.Terms), l.Rel, l.K)
	}
	for _, c := range s.Conds {
		fmt.Fprintf(&b, "(%s > 0) -> (%s > 0)\n", refTerms(s, c.If), refTerms(s, c.Then))
	}
	for _, q := range s.Quads {
		fmt.Fprintf(&b, "%s <= %s * %s\n", s.names[q.X], s.names[q.Y], s.names[q.Z])
	}
	return b.String()
}

func refTerms(s *System, terms []Term) string {
	if len(terms) == 0 {
		return "0"
	}
	var b strings.Builder
	for i, t := range terms {
		switch {
		case i == 0 && t.Coef == 1:
			b.WriteString(s.names[t.Var])
		case i == 0:
			fmt.Fprintf(&b, "%d*%s", t.Coef, s.names[t.Var])
		case t.Coef == 1:
			fmt.Fprintf(&b, " + %s", s.names[t.Var])
		case t.Coef == -1:
			fmt.Fprintf(&b, " - %s", s.names[t.Var])
		case t.Coef < 0:
			fmt.Fprintf(&b, " - %d*%s", -t.Coef, s.names[t.Var])
		default:
			fmt.Fprintf(&b, " + %d*%s", t.Coef, s.names[t.Var])
		}
	}
	return b.String()
}

func refDigest(s *System) string {
	lines := strings.Split(strings.TrimRight(refString(s), "\n"), "\n")
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		io.WriteString(h, l)
		io.WriteString(h, "\n")
	}
	return fmt.Sprintf("v%d-%016x", len(s.names), h.Sum64())
}

// randomDigestSystem draws a system with every row form, coefficients of
// both signs (extremes included) and, at times, no rows at all.
func randomDigestSystem(rng *rand.Rand) *System {
	s := NewSystem()
	n := rng.Intn(6)
	for i := 0; i < n; i++ {
		s.Var(fmt.Sprintf("x%d", i))
	}
	if n == 0 {
		return s
	}
	coefs := []int64{1, -1, 2, -2, 7, -13, 1000, math.MaxInt64, math.MinInt64}
	terms := func() []Term {
		var ts []Term
		for i := rng.Intn(4); i > 0; i-- {
			ts = append(ts, T(coefs[rng.Intn(len(coefs))], Var(rng.Intn(n))))
		}
		return ts
	}
	pos := func() []Term {
		var ts []Term
		for i := 1 + rng.Intn(3); i > 0; i-- {
			ts = append(ts, T(1+rng.Int63n(4), Var(rng.Intn(n))))
		}
		return ts
	}
	for i := rng.Intn(6); i > 0; i-- {
		s.AddLinear(terms(), Rel(rng.Intn(3)), rng.Int63n(21)-10)
	}
	for i := rng.Intn(3); i > 0; i-- {
		s.AddCond(pos(), pos())
	}
	for i := rng.Intn(3); i > 0; i-- {
		s.AddProductUpper(Var(rng.Intn(n)), []Var{Var(rng.Intn(n)), Var(rng.Intn(n)), Var(rng.Intn(n))}[:rng.Intn(4)])
	}
	// Hand-built rows reach the renderer's corner cases that
	// normalizeTerms would otherwise erase: empty forms and zero or
	// repeated coefficients.
	if rng.Intn(4) == 0 {
		s.Lins = append(s.Lins, Linear{Rel: Rel(rng.Intn(3)), K: -1})
		s.Lins = append(s.Lins, Linear{Terms: []Term{T(0, 0), T(-1, 0), T(0, Var(n-1))}, Rel: EQ})
	}
	return s
}

func TestDigestMatchesStringReference(t *testing.T) {
	if got, want := NewSystem().Digest(), refDigest(NewSystem()); got != want {
		t.Fatalf("empty system: Digest = %s, want %s", got, want)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		s := randomDigestSystem(rng)
		if got, want := s.String(), refString(s); got != want {
			t.Fatalf("String = %q, want %q", got, want)
		}
		if got, want := s.Digest(), refDigest(s); got != want {
			t.Fatalf("Digest = %s, want %s\n%s", got, want, s)
		}
	}
}

func BenchmarkDigest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := randomDigestSystem(rng)
	for len(s.Lins) < 4 {
		s = randomDigestSystem(rng)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Digest()
	}
}

package pathre

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// referenceDeterminize is the plain textbook subset construction:
// string-keyed state sets and map-based ε-closures. Determinize must
// produce exactly its DFA, state numbering included, since products,
// flows and certificates are built over those numbers.
func referenceDeterminize(n *NFA, alphabet []string) *DFA {
	alpha := append([]string(nil), alphabet...)
	sort.Strings(alpha)
	d := &DFA{Alphabet: alpha, Index: map[string]int{}}
	for i, a := range alpha {
		d.Index[a] = i
	}
	key := func(set []int) string {
		var b strings.Builder
		for _, s := range set {
			fmt.Fprintf(&b, "%d,", s)
		}
		return b.String()
	}
	start := n.closure([]int{n.Start})
	ids := map[string]int{key(start): 0}
	sets := [][]int{start}
	d.Accept = []bool{sortedContains(start, n.Accept)}
	d.Trans = make([]int, len(alpha))
	for q := 0; q < len(sets); q++ {
		set := sets[q]
		for ci, sym := range alpha {
			var next []int
			for _, s := range set {
				next = append(next, n.Trans[s][sym]...)
				next = append(next, n.WildTrans[s]...)
			}
			next = n.closure(next)
			k := key(next)
			id, ok := ids[k]
			if !ok {
				id = len(sets)
				ids[k] = id
				sets = append(sets, next)
				d.Accept = append(d.Accept, sortedContains(next, n.Accept))
				d.Trans = append(d.Trans, make([]int, len(alpha))...)
			}
			d.Trans[q*len(alpha)+ci] = id
		}
	}
	return d
}

func sortedContains(sorted []int, x int) bool {
	i := sort.SearchInts(sorted, x)
	return i < len(sorted) && sorted[i] == x
}

// diffExpr draws a random expression over symbols a..f.
func diffExpr(rng *rand.Rand, depth int) *Expr {
	if depth <= 0 || rng.Intn(4) == 0 {
		switch rng.Intn(5) {
		case 0:
			return Epsilon()
		case 1:
			return Wildcard()
		default:
			return Symbol(string(rune('a' + rng.Intn(6))))
		}
	}
	switch rng.Intn(3) {
	case 0:
		return Concat(diffExpr(rng, depth-1), diffExpr(rng, depth-1), diffExpr(rng, depth-1))
	case 1:
		return Union(diffExpr(rng, depth-1), diffExpr(rng, depth-1))
	default:
		return Closure(diffExpr(rng, depth-1))
	}
}

// diffAlphabet draws an unsorted alphabet from a..h: it may omit
// symbols the expression names, include symbols it never names, repeat
// a symbol, or be empty.
func diffAlphabet(rng *rand.Rand) []string {
	var out []string
	for c := 'a'; c <= 'h'; c++ {
		if rng.Intn(2) == 0 {
			out = append(out, string(c))
		}
	}
	if len(out) > 0 && rng.Intn(8) == 0 {
		out = append(out, out[rng.Intn(len(out))])
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestDeterminizeMatchesReference: the optimized subset construction
// builds the reference construction's DFA exactly.
func TestDeterminizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rounds := 3000
	if testing.Short() {
		rounds = 500
	}
	for i := 0; i < rounds; i++ {
		e := diffExpr(rng, 4)
		alphabet := diffAlphabet(rng)
		n := CompileNFA(e)
		want := referenceDeterminize(n, alphabet)
		got := Determinize(n, alphabet)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Determinize(%q, %v) differs from the reference:\n got %+v\nwant %+v", e, alphabet, got, want)
		}
	}
}

// referenceProduct is the product construction with string-keyed
// tuples; NewProduct must build exactly its automaton.
func referenceProduct(dfas []*DFA) *Product {
	alpha := dfas[0].Alphabet
	p := &Product{DFAs: dfas, Alphabet: alpha}
	key := func(tuple []int) string {
		var b strings.Builder
		for _, s := range tuple {
			fmt.Fprintf(&b, "%d,", s)
		}
		return b.String()
	}
	start := make([]int, len(dfas))
	ids := map[string]int{key(start): 0}
	p.tuples = [][]int{start}
	p.Trans = make([]int, len(alpha))
	for q := 0; q < len(p.tuples); q++ {
		tuple := p.tuples[q]
		for ci := range alpha {
			next := make([]int, len(dfas))
			for i, d := range dfas {
				next[i] = d.Trans[tuple[i]*len(alpha)+ci]
			}
			k := key(next)
			id, ok := ids[k]
			if !ok {
				id = len(p.tuples)
				ids[k] = id
				p.tuples = append(p.tuples, next)
				p.Trans = append(p.Trans, make([]int, len(alpha))...)
			}
			p.Trans[q*len(alpha)+ci] = id
		}
	}
	return p
}

// TestProductMatchesReference: NewProduct over random DFAs sharing an
// alphabet builds the reference product exactly.
func TestProductMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 500; i++ {
		alphabet := diffAlphabet(rng)
		dfas := make([]*DFA, 1+rng.Intn(3))
		for j := range dfas {
			dfas[j] = CompileDFA(diffExpr(rng, 3), alphabet)
		}
		if got, want := NewProduct(dfas), referenceProduct(dfas); !reflect.DeepEqual(got, want) {
			t.Fatalf("NewProduct over %v differs from the reference", alphabet)
		}
	}
}

// benchAlphabet is a Figure 3-sized alphabet: a root, a cell type and
// two literal types per variable.
func benchAlphabet(vars int) []string {
	out := []string{"r", "C"}
	for i := 1; i <= vars; i++ {
		out = append(out, fmt.Sprintf("Px%d", i), fmt.Sprintf("Nx%d", i))
	}
	return out
}

func BenchmarkCompileDFA(b *testing.B) {
	alphabet := benchAlphabet(8)
	exprs := []*Expr{
		MustParse("r._*.Px3._*.C"),
		MustParse("r.C.C"),
		MustParse("r._*.(Nx1|Px2)._*.C"),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, e := range exprs {
			CompileDFA(e, alphabet)
		}
	}
}

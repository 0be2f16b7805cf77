package pathre

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestMinimizeEquivalent(t *testing.T) {
	alphabet := []string{"a", "b", "c"}
	for _, re := range []string{
		"_*", "a.b ∪ a.c", "a.(b ∪ c)", "(a ∪ b)*.c", "ε", "a",
		"r", "(a.b)* ∪ (a.b)*.a", "_._._",
	} {
		d := CompileDFA(MustParse(re), alphabet)
		m := d.Minimize()
		if !d.Equivalent(m) {
			t.Fatalf("%q: minimized DFA not equivalent", re)
		}
		if m.NumStates() > d.NumStates() {
			t.Fatalf("%q: minimization grew the DFA (%d -> %d)", re, d.NumStates(), m.NumStates())
		}
	}
}

func TestMinimizeMergesEquivalentStates(t *testing.T) {
	alphabet := []string{"a", "b"}
	// a.b and a.b ∪ a.b written redundantly determinize to more states
	// than the minimum; distributivity pairs must merge.
	d1 := CompileDFA(MustParse("a.b ∪ a.b ∪ a.b"), alphabet).Minimize()
	d2 := CompileDFA(MustParse("a.b"), alphabet).Minimize()
	if d1.NumStates() != d2.NumStates() {
		t.Fatalf("redundant union: %d states vs %d", d1.NumStates(), d2.NumStates())
	}
	// Σ* has a 1-state minimal DFA.
	if m := CompileDFA(MustParse("_*"), alphabet).Minimize(); m.NumStates() != 1 {
		t.Fatalf("_* minimal DFA has %d states, want 1", m.NumStates())
	}
}

func TestQuickMinimizePreservesLanguage(t *testing.T) {
	alphabet := []string{"a", "b", "c"}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(19))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randomExpr(rng, 3)
		d := CompileDFA(e, alphabet)
		m := d.Minimize()
		if !d.Equivalent(m) {
			t.Logf("%q: language changed", e)
			return false
		}
		// Minimality: minimizing again is a fixpoint.
		if mm := m.Minimize(); mm.NumStates() != m.NumStates() {
			t.Logf("%q: not a fixpoint (%d -> %d)", e, m.NumStates(), mm.NumStates())
			return false
		}
		// Random words agree.
		for i := 0; i < 30; i++ {
			w := make([]string, rng.Intn(6))
			for j := range w {
				w[j] = alphabet[rng.Intn(len(alphabet))]
			}
			if d.Match(w) != m.Match(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestMinimizeMatchesReference pins Minimize to the map-based
// Hopcroft refinement it replaced: the same quotient automaton, state
// numbering included, on the fixed expressions above and on random
// path expressions over two alphabets.
func TestMinimizeMatchesReference(t *testing.T) {
	same := func(re string, d *DFA) {
		t.Helper()
		got, want := d.Minimize(), refMinimize(d)
		if got.Start != want.Start || !slices.Equal(got.Trans, want.Trans) || !slices.Equal(got.Accept, want.Accept) {
			t.Fatalf("%s: Minimize = %v/%v, reference %v/%v", re, got.Trans, got.Accept, want.Trans, want.Accept)
		}
	}
	for _, re := range []string{
		"_*", "a.b ∪ a.c", "a.(b ∪ c)", "(a ∪ b)*.c", "ε", "a",
		"r", "(a.b)* ∪ (a.b)*.a", "_._._", "a.b ∪ a.b ∪ a.b",
	} {
		same(re, CompileDFA(MustParse(re), []string{"a", "b", "c"}))
	}
	rng := rand.New(rand.NewSource(23))
	for _, alphabet := range [][]string{{"a", "b", "c"}, {"a", "b", "c", "d", "e", "f"}} {
		for i := 0; i < 1500; i++ {
			e := randomExpr(rng, 2+rng.Intn(4))
			d := CompileDFA(e, alphabet)
			same(e.String(), d)
			same(e.String()+" (minimal)", d.Minimize())
		}
	}
}

// refMinimize is the previous Minimize: a map of touched blocks and
// fresh inside/outside slices per splitter, and a sort of the final
// blocks by least state.
func refMinimize(d *DFA) *DFA {
	n := d.NumStates()
	if n <= 1 {
		return d
	}
	k := len(d.Alphabet)

	// Inverse transition lists: rev[c][t] = states s with δ(s,c)=t.
	rev := make([][][]int32, k)
	for c := 0; c < k; c++ {
		rev[c] = make([][]int32, n)
	}
	for s := 0; s < n; s++ {
		for c := 0; c < k; c++ {
			t := d.Trans[s*k+c]
			rev[c][t] = append(rev[c][t], int32(s))
		}
	}

	// Initial partition: accepting vs non-accepting.
	block := make([]int, n) // state -> block id
	var blocks [][]int32    // block id -> states
	var acc, nonacc []int32
	for s := 0; s < n; s++ {
		if d.Accept[s] {
			acc = append(acc, int32(s))
		} else {
			nonacc = append(nonacc, int32(s))
		}
	}
	addBlock := func(states []int32) int {
		id := len(blocks)
		blocks = append(blocks, states)
		for _, s := range states {
			block[s] = id
		}
		return id
	}
	if len(acc) > 0 {
		addBlock(acc)
	}
	if len(nonacc) > 0 {
		addBlock(nonacc)
	}

	// Worklist of (block, symbol) splitters.
	type splitter struct {
		b, c int
	}
	var work []splitter
	for b := range blocks {
		for c := 0; c < k; c++ {
			work = append(work, splitter{b, c})
		}
	}

	inSet := make([]bool, n)
	for len(work) > 0 {
		sp := work[len(work)-1]
		work = work[:len(work)-1]
		// X = states with a c-transition into block sp.b.
		var x []int32
		for _, t := range blocks[sp.b] {
			x = append(x, rev[sp.c][t]...)
		}
		if len(x) == 0 {
			continue
		}
		for _, s := range x {
			inSet[s] = true
		}
		// Split every block partially covered by X.
		touched := map[int]bool{}
		for _, s := range x {
			touched[block[s]] = true
		}
		for b := range touched {
			var inside, outside []int32
			for _, s := range blocks[b] {
				if inSet[s] {
					inside = append(inside, s)
				} else {
					outside = append(outside, s)
				}
			}
			if len(inside) == 0 || len(outside) == 0 {
				continue
			}
			// Replace block b with the larger half; the smaller half
			// becomes a new block and a new splitter for every symbol.
			small, large := inside, outside
			if len(small) > len(large) {
				small, large = large, small
			}
			blocks[b] = large
			nb := addBlock(small)
			for c := 0; c < k; c++ {
				work = append(work, splitter{nb, c})
			}
		}
		for _, s := range x {
			inSet[s] = false
		}
	}

	// Build the quotient automaton with the start block first and the
	// remaining blocks in first-state order (deterministic output).
	order := make([]int, len(blocks))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		bi, bj := order[i], order[j]
		if (bi == block[d.Start]) != (bj == block[d.Start]) {
			return bi == block[d.Start]
		}
		return refMinState(blocks[bi]) < refMinState(blocks[bj])
	})
	newID := make([]int, len(blocks))
	for i, b := range order {
		newID[b] = i
	}
	out := &DFA{
		Alphabet: d.Alphabet,
		Index:    d.Index,
		Trans:    make([]int, len(blocks)*k),
		Accept:   make([]bool, len(blocks)),
		Start:    0,
	}
	for b, states := range blocks {
		rep := states[0]
		out.Accept[newID[b]] = d.Accept[rep]
		for c := 0; c < k; c++ {
			out.Trans[newID[b]*k+c] = newID[block[d.Trans[int(rep)*k+c]]]
		}
	}
	return out
}

func refMinState(states []int32) int32 {
	m := states[0]
	for _, s := range states[1:] {
		if s < m {
			m = s
		}
	}
	return m
}

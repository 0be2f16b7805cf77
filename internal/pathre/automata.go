package pathre

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// NFA is a Thompson automaton for a path expression. Transitions carry
// either a concrete element type or the wildcard; ε-moves are kept
// separate. State 0 is the start state; there is a single accept state.
type NFA struct {
	// Trans[s] maps an element type to successor states.
	Trans []map[string][]int
	// WildTrans[s] lists successors on any symbol.
	WildTrans [][]int
	// EpsTrans[s] lists ε-successors.
	EpsTrans [][]int
	// Start and Accept are the designated states.
	Start, Accept int
}

// CompileNFA builds a Thompson NFA for the expression.
func CompileNFA(e *Expr) *NFA {
	n := &NFA{}
	newState := func() int {
		n.Trans = append(n.Trans, nil)
		n.WildTrans = append(n.WildTrans, nil)
		n.EpsTrans = append(n.EpsTrans, nil)
		return len(n.Trans) - 1
	}
	var build func(e *Expr) (int, int)
	build = func(e *Expr) (start, accept int) {
		switch e.Kind {
		case Eps:
			s := newState()
			return s, s
		case Sym:
			s, a := newState(), newState()
			if n.Trans[s] == nil {
				n.Trans[s] = map[string][]int{}
			}
			n.Trans[s][e.Name] = append(n.Trans[s][e.Name], a)
			return s, a
		case Wild:
			s, a := newState(), newState()
			n.WildTrans[s] = append(n.WildTrans[s], a)
			return s, a
		case Cat:
			start, accept = build(e.Kids[0])
			for _, k := range e.Kids[1:] {
				ks, ka := build(k)
				n.EpsTrans[accept] = append(n.EpsTrans[accept], ks)
				accept = ka
			}
			return start, accept
		case Alt:
			s, a := newState(), newState()
			for _, k := range e.Kids {
				ks, ka := build(k)
				n.EpsTrans[s] = append(n.EpsTrans[s], ks)
				n.EpsTrans[ka] = append(n.EpsTrans[ka], a)
			}
			return s, a
		case Star:
			s, a := newState(), newState()
			ks, ka := build(e.Kids[0])
			n.EpsTrans[s] = append(n.EpsTrans[s], ks, a)
			n.EpsTrans[ka] = append(n.EpsTrans[ka], ks, a)
			return s, a
		}
		panic("pathre: unknown expression kind")
	}
	n.Start, n.Accept = build(e)
	return n
}

// closure expands a state set with ε-moves, in place, returning the
// sorted deduplicated set.
func (n *NFA) closure(set []int) []int {
	seen := map[int]bool{}
	stack := append([]int(nil), set...)
	for _, s := range stack {
		seen[s] = true
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range n.EpsTrans[s] {
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Match reports whether the path (a word of element type names) is in
// the language. Matching runs the NFA directly so it works without a
// fixed alphabet.
func (n *NFA) Match(path []string) bool {
	cur := n.closure([]int{n.Start})
	for _, sym := range path {
		var next []int
		for _, s := range cur {
			next = append(next, n.Trans[s][sym]...)
			next = append(next, n.WildTrans[s]...)
		}
		if len(next) == 0 {
			return false
		}
		cur = n.closure(next)
	}
	for _, s := range cur {
		if s == n.Accept {
			return true
		}
	}
	return false
}

// Match reports whether the path is in the language of the expression.
// It compiles a throwaway NFA; callers matching many paths should
// compile once.
func (e *Expr) Match(path []string) bool { return CompileNFA(e).Match(path) }

// DFA is a complete deterministic automaton over an explicit alphabet.
// State 0 is the start state. Every state has a transition for every
// alphabet symbol (a dead state is materialized as needed).
type DFA struct {
	// Alphabet is the sorted symbol set; Index maps symbol to column.
	Alphabet []string
	Index    map[string]int
	// Trans[s*len(Alphabet)+c] is the successor state.
	Trans []int
	// Accept[s] reports whether s is accepting.
	Accept []bool
	// Start is always 0.
	Start int
}

// NumStates returns the number of DFA states.
func (d *DFA) NumStates() int { return len(d.Accept) }

// Step returns δ(s, sym). Unknown symbols go to a dead state only if
// one exists; they panic otherwise, since a complete DFA must be built
// over the full alphabet of interest.
func (d *DFA) Step(s int, sym string) int {
	c, ok := d.Index[sym]
	if !ok {
		panic(fmt.Sprintf("pathre: symbol %q not in DFA alphabet", sym))
	}
	return d.Trans[s*len(d.Alphabet)+c]
}

// Match runs the DFA over the path.
func (d *DFA) Match(path []string) bool {
	s := d.Start
	for _, sym := range path {
		s = d.Step(s, sym)
	}
	return d.Accept[s]
}

// Determinize builds a complete DFA from the NFA over the given
// alphabet via subset construction. Symbols of the NFA outside the
// alphabet are unreachable in any matched path and are ignored.
//
// DFA states are numbered in breadth-first discovery order (state q's
// successors in column order). A state set is keyed by its bitset over
// NFA states, and ε-closures mark visited states with a per-closure
// generation number, so a step allocates nothing unless it discovers a
// new state. Columns no NFA state names concretely all move on the
// wildcard edges alone, so their shared successor is computed once per
// DFA state.
func Determinize(n *NFA, alphabet []string) *DFA {
	alpha := append([]string(nil), alphabet...)
	sort.Strings(alpha)
	d := &DFA{Alphabet: alpha, Index: map[string]int{}}
	for i, a := range alpha {
		d.Index[a] = i
	}
	cols := len(alpha)
	b := newDeterminizer(n, alpha)
	d.Accept = []bool{b.closure(n.Start, -1)}
	b.intern()
	d.Trans = make([]int, cols)
	for q := 0; q < b.numSets(); q++ {
		b.gather(q)
		shared := -1 // successor on the columns no NFA state names
		for ci := 0; ci < cols; ci++ {
			named := b.named[ci]
			if !named && shared >= 0 {
				d.Trans[q*cols+ci] = shared
				continue
			}
			col := -1
			if named {
				col = ci
			}
			accept := b.closure(-1, col)
			id, fresh := b.intern()
			if fresh {
				d.Accept = append(d.Accept, accept)
				d.Trans = append(d.Trans, make([]int, cols)...)
			}
			if !named {
				shared = id
			}
			d.Trans[q*cols+ci] = id
		}
	}
	return d
}

// determinizer holds the reusable scratch state of one subset
// construction.
type determinizer struct {
	n *NFA
	// edges[s] lists state s's concrete transitions as (column,
	// successors) pairs over the sorted alphabet.
	edges [][]colEdge
	// named[c] reports that some NFA state has a concrete transition on
	// column c's symbol.
	named []bool

	// members[spans[i][0]:spans[i][1]] are the NFA states of DFA state
	// i; ids maps a state set's bitset to its DFA state.
	members []int32
	spans   [][2]int32
	ids     map[string]int

	// Per-DFA-state seed lists: the wildcard successors and, per named
	// column, the concrete successors of the state's members.
	wild  []int32
	seeds [][]int32

	mark  []uint32 // mark[s] == gen: s is in the current closure
	gen   uint32
	stack []int32
	cur   []int32 // the current closure's members
	key   []byte  // the current closure's bitset
}

type colEdge struct {
	col int32
	to  []int
}

func newDeterminizer(n *NFA, alpha []string) *determinizer {
	states := len(n.Trans)
	b := &determinizer{
		n:     n,
		edges: make([][]colEdge, states),
		named: make([]bool, len(alpha)),
		ids:   map[string]int{},
		seeds: make([][]int32, len(alpha)),
		mark:  make([]uint32, states),
		key:   make([]byte, (states+7)/8),
	}
	for s, trans := range n.Trans {
		for sym, to := range trans {
			for ci := sort.SearchStrings(alpha, sym); ci < len(alpha) && alpha[ci] == sym; ci++ {
				b.edges[s] = append(b.edges[s], colEdge{col: int32(ci), to: to})
				b.named[ci] = true
			}
		}
	}
	return b
}

func (b *determinizer) numSets() int { return len(b.spans) }

// gather collects DFA state q's wildcard successors and the concrete
// successors of every named column.
func (b *determinizer) gather(q int) {
	b.wild = b.wild[:0]
	for ci := range b.seeds {
		b.seeds[ci] = b.seeds[ci][:0]
	}
	span := b.spans[q]
	for _, s := range b.members[span[0]:span[1]] {
		for _, t := range b.n.WildTrans[s] {
			b.wild = append(b.wild, int32(t))
		}
		for _, e := range b.edges[s] {
			for _, t := range e.to {
				b.seeds[e.col] = append(b.seeds[e.col], int32(t))
			}
		}
	}
}

// closure computes the ε-closure of either the single state from (when
// non-negative) or the gathered seeds of column col plus the gathered
// wildcard successors (col < 0: wildcard successors alone). It leaves
// the members in cur and the bitset in key, and reports whether the
// closure holds the NFA's accept state.
func (b *determinizer) closure(from, col int) bool {
	b.gen++
	b.cur = b.cur[:0]
	clear(b.key)
	b.stack = b.stack[:0]
	push := func(s int32) {
		if b.mark[s] != b.gen {
			b.mark[s] = b.gen
			b.stack = append(b.stack, s)
		}
	}
	if from >= 0 {
		push(int32(from))
	} else {
		if col >= 0 {
			for _, s := range b.seeds[col] {
				push(s)
			}
		}
		for _, s := range b.wild {
			push(s)
		}
	}
	for len(b.stack) > 0 {
		s := b.stack[len(b.stack)-1]
		b.stack = b.stack[:len(b.stack)-1]
		b.cur = append(b.cur, s)
		b.key[s>>3] |= 1 << (s & 7)
		for _, t := range b.n.EpsTrans[s] {
			push(int32(t))
		}
	}
	return b.mark[b.n.Accept] == b.gen
}

// intern returns the DFA state id of the current closure, recording it
// as a new state when unseen.
func (b *determinizer) intern() (int, bool) {
	if id, ok := b.ids[string(b.key)]; ok {
		return id, false
	}
	id := len(b.spans)
	b.ids[string(b.key)] = id
	lo := int32(len(b.members))
	b.members = append(b.members, b.cur...)
	b.spans = append(b.spans, [2]int32{lo, int32(len(b.members))})
	return id, true
}

// CompileDFA compiles the expression directly to a complete DFA over
// the alphabet.
func CompileDFA(e *Expr, alphabet []string) *DFA {
	return Determinize(CompileNFA(e), alphabet)
}

// Empty reports whether the DFA accepts no word (no accepting state is
// reachable; in a reachable-only construction, no accepting state).
func (d *DFA) Empty() bool {
	for _, a := range d.Accept {
		if a {
			return false
		}
	}
	return true
}

// Contains reports whether L(d) ⊇ L(o), both DFAs being complete over
// the same alphabet: it checks emptiness of L(o) ∩ co-L(d) via a
// product reachability search.
func (d *DFA) Contains(o *DFA) bool {
	if len(d.Alphabet) != len(o.Alphabet) {
		panic("pathre: Contains over different alphabets")
	}
	for i := range d.Alphabet {
		if d.Alphabet[i] != o.Alphabet[i] {
			panic("pathre: Contains over different alphabets")
		}
	}
	type pair struct{ a, b int }
	seen := map[pair]bool{{o.Start, d.Start}: true}
	queue := []pair{{o.Start, d.Start}}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if o.Accept[p.a] && !d.Accept[p.b] {
			return false
		}
		for c := range d.Alphabet {
			np := pair{o.Trans[p.a*len(o.Alphabet)+c], d.Trans[p.b*len(d.Alphabet)+c]}
			if !seen[np] {
				seen[np] = true
				queue = append(queue, np)
			}
		}
	}
	return true
}

// Equivalent reports whether two complete DFAs over the same alphabet
// accept the same language.
func (d *DFA) Equivalent(o *DFA) bool { return d.Contains(o) && o.Contains(d) }

// Product is the product automaton M of the proof of Theorem 3.4: it
// runs k DFAs in lockstep. Product states are created lazily for the
// reachable part only. State 0 is the start state.
type Product struct {
	DFAs     []*DFA
	Alphabet []string
	// Trans[s*len(Alphabet)+c] is the successor product state.
	Trans []int
	// tuples[s] is the underlying tuple of DFA states.
	tuples [][]int
}

// NewProduct builds the reachable product of the DFAs, which must all
// share the same alphabet.
func NewProduct(dfas []*DFA) *Product {
	if len(dfas) == 0 {
		panic("pathre: empty product")
	}
	alpha := dfas[0].Alphabet
	for _, d := range dfas[1:] {
		if len(d.Alphabet) != len(alpha) {
			panic("pathre: product over different alphabets")
		}
	}
	p := &Product{DFAs: dfas, Alphabet: alpha}
	// A tuple is keyed by its states packed as 4-byte integers, so a
	// step allocates only when it discovers a new product state.
	key := make([]byte, 4*len(dfas))
	pack := func(tuple []int) []byte {
		for i, s := range tuple {
			binary.LittleEndian.PutUint32(key[4*i:], uint32(s))
		}
		return key
	}
	start := make([]int, len(dfas))
	ids := map[string]int{string(pack(start)): 0}
	p.tuples = [][]int{start}
	p.Trans = make([]int, len(alpha))
	next := make([]int, len(dfas))
	for q := 0; q < len(p.tuples); q++ {
		tuple := p.tuples[q]
		for ci := range alpha {
			for i, d := range dfas {
				next[i] = d.Trans[tuple[i]*len(alpha)+ci]
			}
			id, ok := ids[string(pack(next))]
			if !ok {
				id = len(p.tuples)
				ids[string(key)] = id
				p.tuples = append(p.tuples, append([]int(nil), next...))
				p.Trans = append(p.Trans, make([]int, len(alpha))...)
			}
			p.Trans[q*len(alpha)+ci] = id
		}
	}
	return p
}

// NumStates returns the number of reachable product states.
func (p *Product) NumStates() int { return len(p.tuples) }

// Step returns δ(s, sym).
func (p *Product) Step(s int, sym string) int {
	c, ok := p.DFAs[0].Index[sym]
	if !ok {
		panic(fmt.Sprintf("pathre: symbol %q not in product alphabet", sym))
	}
	return p.Trans[s*len(p.Alphabet)+c]
}

// AcceptsComponent reports whether product state s contains a final
// state of the i-th DFA (Lemma 5: the node is in nodes_D(β_i)).
func (p *Product) AcceptsComponent(s, i int) bool {
	return p.DFAs[i].Accept[p.tuples[s][i]]
}

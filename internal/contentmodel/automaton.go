package contentmodel

import "math/bits"

// Automaton is the position (Glushkov) automaton of a content model:
// one state per symbol occurrence of the expression plus a start
// state, with no ε moves. A run keeps the set of states it may be in
// as a bit set, so matching a word of child labels allocates nothing
// and needs no determinization, whatever the content model.
//
// An Automaton carries the state of one run, so it is not safe for
// concurrent use; Compile one per goroutine.
type Automaton struct {
	// words is the length of every state set, in uint64 words.
	words int
	// follow[p*words:(p+1)*words] is the set of states that may read
	// the symbol after state p; state 0 is the start state, so its
	// follow set is the first-symbol set of the expression.
	follow []uint64
	// last is the set of accepting states: the occurrences that may
	// end a word, and the start state when the model is nullable.
	last []uint64
	// symbols lists the symbols the model mentions;
	// reads[s*words:(s+1)*words] is the set of states reading
	// symbols[s].
	symbols []string
	reads   []uint64
	// cur is the run's state set and next the scratch of a step.
	cur, next []uint64
}

// Compile builds the position automaton of the expression. The result
// accepts exactly the words Match accepts.
func (e *Expr) Compile() *Automaton {
	occurrences, nodes := e.count()
	w := (occurrences + 1 + 63) / 64
	a := &Automaton{words: w, symbols: make([]string, 0, occurrences)}
	// One slab holds the automaton's sets (a reads set per occurrence
	// bounds the symbols) and, past them, the sets Compile builds it
	// with: at most two per node as an operand of a sequence and two of
	// its own.
	slab := make([]uint64, (2*occurrences+4)*w+4*(nodes+1)*w)
	a.follow, slab = slab[:(occurrences+1)*w], slab[(occurrences+1)*w:]
	a.reads, slab = slab[:occurrences*w], slab[occurrences*w:]
	a.last, slab = slab[:w], slab[w:]
	a.cur, slab = slab[:w], slab[w:]
	a.next, slab = slab[:w], slab[w:]
	c := glushkov{a: a, scratch: slab}
	first := c.sets()
	if c.build(e, first, a.last) {
		setBit(a.last, 0)
	}
	copy(a.follow[:w], first)
	a.Reset()
	return a
}

// Reset starts a new run in the start state.
func (a *Automaton) Reset() {
	clear(a.cur)
	a.cur[0] = 1
}

// symbol returns the number of sym, or -1 when the model does not
// mention it.
func (a *Automaton) symbol(sym string) int {
	for s, name := range a.symbols {
		if name == sym {
			return s
		}
	}
	return -1
}

// Step reads one symbol and reports whether the run is still alive;
// once it is not, every later Step fails too until Reset.
func (a *Automaton) Step(sym string) bool {
	s := a.symbol(sym)
	if s < 0 {
		clear(a.cur)
		return false
	}
	clear(a.next)
	w := a.words
	for i, word := range a.cur {
		for word != 0 {
			p := i*64 + bits.TrailingZeros64(word)
			word &= word - 1
			or(a.next, a.follow[p*w:(p+1)*w])
		}
	}
	alive := false
	for j, r := range a.reads[s*w : (s+1)*w] {
		a.next[j] &= r
		alive = alive || a.next[j] != 0
	}
	a.cur, a.next = a.next, a.cur
	return alive
}

// Accepting reports whether the symbols read since Reset form a word
// of the content model.
func (a *Automaton) Accepting() bool {
	for j, l := range a.last {
		if a.cur[j]&l != 0 {
			return true
		}
	}
	return false
}

// Match reports whether the word is in the language of the content
// model, as Expr.Match does.
func (a *Automaton) Match(word []string) bool {
	a.Reset()
	for _, sym := range word {
		if !a.Step(sym) {
			return false
		}
	}
	return a.Accepting()
}

// count returns the number of symbol occurrences and of nodes of e.
func (e *Expr) count() (occurrences, nodes int) {
	nodes = 1
	if e.Kind == Text || e.Kind == Name {
		occurrences = 1
	}
	for _, k := range e.Kids {
		o, n := k.count()
		occurrences += o
		nodes += n
	}
	return occurrences, nodes
}

// glushkov is the state of one Compile.
type glushkov struct {
	a *Automaton
	// pos is the number of occurrences build has passed.
	pos int
	// scratch holds the sets build hands its subexpressions.
	scratch []uint64
}

// occurrence numbers the next occurrence, of the symbol name, and
// returns its state.
func (c *glushkov) occurrence(name string) int {
	a := c.a
	s := a.symbol(name)
	if s < 0 {
		s = len(a.symbols)
		a.symbols = append(a.symbols, name)
	}
	c.pos++
	setBit(a.reads[s*a.words:], c.pos)
	return c.pos
}

// sets hands out the next empty state set of the scratch.
func (c *glushkov) sets() []uint64 {
	set := c.scratch[:c.a.words]
	c.scratch = c.scratch[c.a.words:]
	return set
}

// build adds e's first and last occurrences to first and last, adds
// the follow pairs inside e, and reports whether e is nullable. It
// only ever adds to first and last, so a choice passes its own two
// sets to every operand.
func (c *glushkov) build(e *Expr, first, last []uint64) bool {
	switch e.Kind {
	case Empty:
		return true
	case Text:
		p := c.occurrence(TextSymbol)
		setBit(first, p)
		setBit(last, p)
		return false
	case Name:
		p := c.occurrence(e.Ref)
		setBit(first, p)
		setBit(last, p)
		return false
	case Star:
		kf, kl := c.sets(), c.sets()
		c.build(e.Kids[0], kf, kl)
		c.link(kl, kf)
		or(first, kf)
		or(last, kl)
		return true
	case Choice:
		nullable := false
		for _, k := range e.Kids {
			if c.build(k, first, last) {
				nullable = true
			}
		}
		return nullable
	case Seq:
		// ends holds the occurrences that may end the prefix read so
		// far.
		nullable, ends := true, c.sets()
		for _, k := range e.Kids {
			kf, kl := c.sets(), c.sets()
			n := c.build(k, kf, kl)
			c.link(ends, kf)
			if nullable {
				or(first, kf)
			}
			if !n {
				clear(ends)
			}
			or(ends, kl)
			nullable = nullable && n
		}
		or(last, ends)
		return nullable
	}
	return false
}

// link lets every occurrence of to follow every state of from.
func (c *glushkov) link(from, to []uint64) {
	w := c.a.words
	for i, word := range from {
		for word != 0 {
			p := i*64 + bits.TrailingZeros64(word)
			word &= word - 1
			or(c.a.follow[p*w:(p+1)*w], to)
		}
	}
}

func setBit(set []uint64, i int) { set[i/64] |= 1 << uint(i%64) }

func or(dst, src []uint64) {
	for j, x := range src {
		dst[j] |= x
	}
}

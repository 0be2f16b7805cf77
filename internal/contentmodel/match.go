package contentmodel

import "math/rand"

// Match reports whether the word of child labels (element type names
// and TextSymbol entries) is in the language of the expression, by
// Brzozowski derivatives. It builds new expressions for every symbol,
// and nested stars make them grow with the word, so conformance
// checking runs the compiled Automaton instead; Match is its reference.
func (e *Expr) Match(word []string) bool {
	cur := e
	for _, sym := range word {
		cur = cur.derive(sym)
		if cur == nil {
			return false
		}
	}
	return cur.Nullable()
}

// Derive returns the Brzozowski derivative of e with respect to sym
// (an expression for the left quotient of the language by sym), or nil
// for the empty language.
func Derive(e *Expr, sym string) *Expr { return e.derive(sym) }

// derive returns the Brzozowski derivative of e with respect to sym, or
// nil for the empty language. The grammar has no complement or
// intersection, so the derivative stays within the grammar (with nil
// standing in for ∅).
func (e *Expr) derive(sym string) *Expr {
	switch e.Kind {
	case Empty:
		return nil
	case Text:
		if sym == TextSymbol {
			return Eps()
		}
		return nil
	case Name:
		if sym == e.Ref {
			return Eps()
		}
		return nil
	case Seq:
		// d(a.b) = d(a).b  |  (a nullable ? d(b_rest) : ∅)
		head := e.Kids[0]
		rest := NewSeq(e.Kids[1:]...)
		var alts []*Expr
		if dh := head.derive(sym); dh != nil {
			alts = append(alts, NewSeq(dh, rest))
		}
		if head.Nullable() {
			if dr := rest.derive(sym); dr != nil {
				alts = append(alts, dr)
			}
		}
		return choiceOrNil(alts)
	case Choice:
		var alts []*Expr
		for _, k := range e.Kids {
			if d := k.derive(sym); d != nil {
				alts = append(alts, d)
			}
		}
		return choiceOrNil(alts)
	case Star:
		if d := e.Kids[0].derive(sym); d != nil {
			return NewSeq(d, e)
		}
		return nil
	}
	return nil
}

func choiceOrNil(alts []*Expr) *Expr {
	switch len(alts) {
	case 0:
		return nil
	case 1:
		return alts[0]
	}
	return &Expr{Kind: Choice, Kids: alts}
}

// MinWord returns a shortest word in the language of the expression.
func (e *Expr) MinWord() []string {
	switch e.Kind {
	case Empty, Star:
		return nil
	case Text:
		return []string{TextSymbol}
	case Name:
		return []string{e.Ref}
	case Seq:
		var out []string
		for _, k := range e.Kids {
			out = append(out, k.MinWord()...)
		}
		return out
	case Choice:
		var best []string
		first := true
		for _, k := range e.Kids {
			w := k.MinWord()
			if first || len(w) < len(best) {
				best, first = w, false
			}
		}
		return best
	}
	return nil
}

// SampleOptions controls random word generation.
type SampleOptions struct {
	// StarMax bounds the number of iterations sampled for each Kleene
	// star (inclusive). Zero means 3.
	StarMax int
}

// Sample returns a random word in the language of the expression. The
// word is always a member of the language; stars iterate between 0 and
// StarMax times, and choices pick uniformly among operands.
func (e *Expr) Sample(rng *rand.Rand, opts SampleOptions) []string {
	if opts.StarMax == 0 {
		opts.StarMax = 3
	}
	var out []string
	e.sample(rng, opts, &out)
	return out
}

func (e *Expr) sample(rng *rand.Rand, opts SampleOptions, out *[]string) {
	switch e.Kind {
	case Empty:
	case Text:
		*out = append(*out, TextSymbol)
	case Name:
		*out = append(*out, e.Ref)
	case Seq:
		for _, k := range e.Kids {
			k.sample(rng, opts, out)
		}
	case Choice:
		e.Kids[rng.Intn(len(e.Kids))].sample(rng, opts, out)
	case Star:
		n := rng.Intn(opts.StarMax + 1)
		for i := 0; i < n; i++ {
			e.Kids[0].sample(rng, opts, out)
		}
	}
}

// MatchSubset reports whether the expression can match some word that
// uses only element type names in allowed (text is always allowed).
// It is the workhorse of DTD satisfiability: an element type is
// productive iff its content model can match a word over productive
// types.
func (e *Expr) MatchSubset(allowed func(name string) bool) bool {
	switch e.Kind {
	case Empty, Text, Star:
		return true // stars may iterate zero times
	case Name:
		return allowed(e.Ref)
	case Seq:
		for _, k := range e.Kids {
			if !k.MatchSubset(allowed) {
				return false
			}
		}
		return true
	case Choice:
		for _, k := range e.Kids {
			if k.MatchSubset(allowed) {
				return true
			}
		}
		return false
	}
	return false
}

// Restrict returns an expression for the sublanguage of e over words
// whose element names all satisfy allowed, or nil if that sublanguage
// is empty. Text is always allowed.
func (e *Expr) Restrict(allowed func(name string) bool) *Expr {
	switch e.Kind {
	case Empty, Text:
		return e
	case Name:
		if allowed(e.Ref) {
			return e
		}
		return nil
	case Seq:
		kids := make([]*Expr, 0, len(e.Kids))
		for _, k := range e.Kids {
			r := k.Restrict(allowed)
			if r == nil {
				return nil
			}
			kids = append(kids, r)
		}
		return NewSeq(kids...)
	case Choice:
		var kids []*Expr
		for _, k := range e.Kids {
			if r := k.Restrict(allowed); r != nil {
				kids = append(kids, r)
			}
		}
		if len(kids) == 0 {
			return nil
		}
		return NewChoice(kids...)
	case Star:
		if r := e.Kids[0].Restrict(allowed); r != nil {
			return NewStar(r)
		}
		return Eps() // the star can still match ε
	}
	return nil
}

package cardinality

import (
	"sort"

	"repro/internal/dtd"
	"repro/internal/pathre"
)

// DTDForm is the DTD-only half of the encodings of one DTD: the
// narrowed grammar every flow is built on, and the minimized region
// automata of the regular encoding, memoized by region path. The
// element alphabet is fixed per DTD, so a path names its automaton.
// Everything is computed on first use, and encodings built from one
// form share what it holds: the narrowing and the automata are never
// modified after construction. The zero form over a DTD (as the
// package-level encoders use it, for one encoding) memoizes no
// automata.
//
// A DTDForm is not safe for concurrent use: its memos fill in as
// encodings consult them.
type DTDForm struct {
	// D is the DTD the form compiles; it must Validate.
	D *dtd.DTD

	narrowed *dtd.Narrowed
	alphabet []string
	dfas     map[string]*pathre.DFA
	any      *pathre.DFA
}

// NewDTDForm prepares the compiled form of d, for several encodings.
// It computes nothing up front.
func NewDTDForm(d *dtd.DTD) *DTDForm {
	return &DTDForm{D: d, dfas: map[string]*pathre.DFA{}}
}

// Narrowed returns the memoized narrowing of the form's DTD.
func (f *DTDForm) Narrowed() *dtd.Narrowed {
	if f.narrowed == nil {
		f.narrowed = dtd.Narrow(f.D)
	}
	return f.narrowed
}

// sortedAlphabet returns the DTD's element types in sorted order, the
// alphabet of every region automaton.
func (f *DTDForm) sortedAlphabet() []string {
	if f.alphabet == nil {
		f.alphabet = append([]string(nil), f.D.Names...)
		sort.Strings(f.alphabet)
	}
	return f.alphabet
}

// regionDFA returns the minimized automaton of r's path language.
// Minimizing each automaton before the product keeps the reachable
// product state space (and hence the flow system) small.
func (f *DTDForm) regionDFA(r *Region) *pathre.DFA {
	dfa, ok := f.dfas[r.path]
	if !ok {
		dfa = pathre.CompileDFA(r.Expr, f.sortedAlphabet()).Minimize()
		if f.dfas != nil {
			f.dfas[r.path] = dfa
		}
	}
	return dfa
}

// anyDFA returns the automaton of every path, the whole product of an
// encoding without regions.
func (f *DTDForm) anyDFA() *pathre.DFA {
	if f.any == nil {
		f.any = pathre.CompileDFA(pathre.AnyPath(), f.sortedAlphabet())
	}
	return f.any
}

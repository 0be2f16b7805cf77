package dtd

import (
	"strconv"

	"repro/internal/contentmodel"
)

// RuleKind discriminates the production forms of a narrowed DTD. After
// narrowing, every production has one of the shapes of the proof of
// Theorem 3.4:
//
//	τ → τ1, τ2    τ → τ1 | τ2    τ → τ1*    τ → τ'    τ → S    τ → ε
//
// where τ1, τ2 are nonterminals, τ' is an original element type, and S
// is the string type.
type RuleKind int

// The narrowed production forms.
const (
	// RuleEmpty is τ → ε.
	RuleEmpty RuleKind = iota
	// RuleText is τ → S.
	RuleText
	// RuleRef is τ → τ' with τ' an original element type (field A).
	RuleRef
	// RuleSeq is τ → A, B with A and B fresh nonterminals.
	RuleSeq
	// RuleChoice is τ → A | B with A and B fresh nonterminals.
	RuleChoice
	// RuleStar is τ → A* with A a fresh nonterminal.
	RuleStar
)

// Rule is one narrowed production. A is the symbol id of the first (or
// only) operand and B that of the second one for RuleSeq/RuleChoice.
type Rule struct {
	Kind RuleKind
	A, B int
}

// Narrowed is the narrowed DTD D_N of the proof of Theorem 3.4. The
// symbol set is E ∪ N where N holds the fresh nonterminals introduced
// while binarizing the content models; original element types appear on
// the right-hand side of productions only in RuleRef rules, which is
// what makes the sum-form cardinality equations of the encodings exact.
//
// Symbols are dense integer ids: the original element types come first,
// as 0 … len(Orig.Names)-1 in definition order, followed by the
// nonterminals in creation order. A nonterminal is named "owner#k", k
// counting the nonterminals of its owner's content model from 1; the
// name is rendered only on demand (Name, AppendName).
type Narrowed struct {
	// Orig is the DTD the narrowing was computed from.
	Orig *DTD
	// Root is the id of the root symbol (Orig.Root).
	Root int
	// Rules[s] is the single production of symbol s.
	Rules []Rule
	// Owner[s] is the id of the original element type whose content
	// model introduced s; original types own themselves.
	Owner []int
	// local[s] is the k of nonterminal s's name "owner#k" (0 for
	// original types).
	local []int32
	// ids maps each original element type name to its id.
	ids map[string]int
}

// nonterminalSep separates the owner name from the counter in generated
// nonterminal names. It is not a legal name byte in the parsers, so
// parsed DTDs can never collide with generated nonterminals.
const nonterminalSep = '#'

// Narrow computes the narrowed DTD D_N. The input must Validate.
func Narrow(d *DTD) *Narrowed {
	orig, size := len(d.Names), len(d.Names)
	for _, name := range d.Names {
		size += nonterminals(d.Elements[name].Content)
	}
	n := &Narrowed{
		Orig:  d,
		Rules: make([]Rule, orig, size),
		Owner: make([]int, orig, size),
		local: make([]int32, orig, size),
		ids:   make(map[string]int, orig),
	}
	for i, name := range d.Names {
		n.Owner[i] = i
		n.ids[name] = i
	}
	n.Root = n.ids[d.Root]
	for i, name := range d.Names {
		counter := 0
		n.setRule(i, n.narrow(i, d.Elements[name].Content, &counter))
	}
	return n
}

// narrow converts one content-model expression into a production,
// introducing fresh nonterminals (owned by owner, numbered by counter)
// for sub-expressions.
func (n *Narrowed) narrow(owner int, e *contentmodel.Expr, counter *int) Rule {
	switch e.Kind {
	case contentmodel.Empty:
		return Rule{Kind: RuleEmpty}
	case contentmodel.Text:
		return Rule{Kind: RuleText}
	case contentmodel.Name:
		return Rule{Kind: RuleRef, A: n.ids[e.Ref]}
	case contentmodel.Star:
		id := n.fresh(owner, counter)
		n.setRule(id, n.narrow(owner, e.Kids[0], counter))
		return Rule{Kind: RuleStar, A: id}
	case contentmodel.Seq, contentmodel.Choice:
		return n.binarize(owner, e.Kind, e.Kids, counter)
	}
	panic("dtd: unknown content model kind")
}

// binarize narrows an n-ary sequence or choice (n ≥ 2) left to right:
// (k1, rest), with rest re-narrowed as the same operator over the
// remaining kids.
func (n *Narrowed) binarize(owner int, kind contentmodel.Kind, kids []*contentmodel.Expr, counter *int) Rule {
	r := Rule{Kind: RuleSeq}
	if kind == contentmodel.Choice {
		r.Kind = RuleChoice
	}
	r.A = n.fresh(owner, counter)
	n.setRule(r.A, n.narrow(owner, kids[0], counter))
	r.B = n.fresh(owner, counter)
	if len(kids) == 2 {
		n.setRule(r.B, n.narrow(owner, kids[1], counter))
	} else {
		n.setRule(r.B, n.binarize(owner, kind, kids[1:], counter))
	}
	return r
}

// fresh introduces the next nonterminal of owner and returns its id;
// the caller fills in its rule. Ids are taken before the operand is
// narrowed, so they follow creation (pre-order) order.
func (n *Narrowed) fresh(owner int, counter *int) int {
	*counter++
	n.Rules = append(n.Rules, Rule{})
	n.Owner = append(n.Owner, owner)
	n.local = append(n.local, int32(*counter))
	return len(n.Rules) - 1
}

// setRule installs a production once its operands are narrowed. It
// takes the rule as an argument so the Rules slice is read only after
// the narrowing that may have grown it.
func (n *Narrowed) setRule(sym int, r Rule) { n.Rules[sym] = r }

// nonterminals returns how many nonterminals narrowing e introduces,
// so Narrow can size its tables exactly.
func nonterminals(e *contentmodel.Expr) int {
	switch e.Kind {
	case contentmodel.Star:
		return 1 + nonterminals(e.Kids[0])
	case contentmodel.Seq, contentmodel.Choice:
		kids := e.Kids
		total := 0
		for ; len(kids) > 2; kids = kids[1:] {
			total += 2 + nonterminals(kids[0])
		}
		return total + 2 + nonterminals(kids[0]) + nonterminals(kids[1])
	}
	return 0
}

// NumSymbols returns |E ∪ N|.
func (n *Narrowed) NumSymbols() int { return len(n.Rules) }

// IsOriginal reports whether the symbol is an original element type
// (as opposed to a narrowing nonterminal).
func (n *Narrowed) IsOriginal(sym int) bool { return sym < len(n.Orig.Names) }

// ID returns the symbol id of an original element type.
func (n *Narrowed) ID(name string) (int, bool) {
	id, ok := n.ids[name]
	return id, ok
}

// Name returns the name of a symbol: the element type name for
// original types, "owner#k" for nonterminals.
func (n *Narrowed) Name(sym int) string {
	if n.IsOriginal(sym) {
		return n.Orig.Names[sym]
	}
	return string(n.AppendName(nil, sym))
}

// AppendName appends the name of a symbol to buf.
func (n *Narrowed) AppendName(buf []byte, sym int) []byte {
	if n.IsOriginal(sym) {
		return append(buf, n.Orig.Names[sym]...)
	}
	buf = append(buf, n.Orig.Names[n.Owner[sym]]...)
	buf = append(buf, nonterminalSep)
	return strconv.AppendInt(buf, int64(n.local[sym]), 10)
}

// String renders the narrowed grammar for debugging, one production per
// line in symbol order.
func (n *Narrowed) String() string {
	var buf []byte
	for sym, r := range n.Rules {
		buf = n.AppendName(buf, sym)
		buf = append(buf, " -> "...)
		switch r.Kind {
		case RuleEmpty:
			buf = append(buf, "EMPTY"...)
		case RuleText:
			buf = append(buf, "#PCDATA"...)
		case RuleRef:
			buf = n.AppendName(buf, r.A)
		case RuleSeq:
			buf = append(n.AppendName(buf, r.A), ", "...)
			buf = n.AppendName(buf, r.B)
		case RuleChoice:
			buf = append(n.AppendName(buf, r.A), " | "...)
			buf = n.AppendName(buf, r.B)
		case RuleStar:
			buf = append(n.AppendName(buf, r.A), '*')
		}
		buf = append(buf, '\n')
	}
	return string(buf)
}

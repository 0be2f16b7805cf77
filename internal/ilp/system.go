// Package ilp implements an exact solver for the integer constraint
// systems the paper's decision procedures compile XML specifications
// into. A system consists of nonnegative integer variables and three
// constraint forms:
//
//   - linear constraints  Σ cᵢ·xᵢ ⋈ k          (⋈ ∈ {≤, ≥, =})
//   - conditionals        (Σ aᵢ·xᵢ > 0) → (Σ bᵢ·xᵢ > 0)
//   - prequadratic        x ≤ y·z
//
// Linear + conditional systems are exactly the NP feasibility problems
// of Lemma 8; adding the prequadratic form yields the Prequadratic
// Diophantine Equations (PDE) problem of Theorem 3.1 (McAllester,
// Givan, Witty, Kozen). The solver is a branch-and-bound search with
// interval propagation and an optional exact rational simplex
// relaxation for pruning; it is complete relative to a value cap and a
// node budget, and reports Unknown instead of guessing when a verdict
// would depend on exceeding them.
package ilp

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Var identifies a variable of a System.
type Var int

// Term is one addend c·x of a linear form.
type Term struct {
	Var  Var
	Coef int64
}

// T is shorthand for constructing a Term.
func T(c int64, v Var) Term { return Term{Var: v, Coef: c} }

// Rel is a linear constraint relation.
type Rel int

// The linear relations.
const (
	LE Rel = iota // ≤
	GE            // ≥
	EQ            // =
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "="
	}
}

// Linear is Σ Terms Rel K.
type Linear struct {
	Terms []Term
	Rel   Rel
	K     int64
}

// Cond is the conditional constraint (Σ If > 0) → (Σ Then > 0). All
// coefficients must be positive (the form the encodings need); with
// nonnegative variables the premise then reads "some If variable is
// positive".
type Cond struct {
	If, Then []Term
}

// Quad is the prequadratic constraint X ≤ Y·Z.
type Quad struct {
	X, Y, Z Var
}

// System is a constraint system under construction. All variables
// range over nonnegative integers.
type System struct {
	names  []string
	byName map[string]Var

	Lins  []Linear
	Conds []Cond
	Quads []Quad
}

// NewSystem returns an empty system.
func NewSystem() *System {
	return &System{byName: map[string]Var{}}
}

// Var interns a variable by name and returns its id.
func (s *System) Var(name string) Var {
	if v, ok := s.byName[name]; ok {
		return v
	}
	v := Var(len(s.names))
	s.names = append(s.names, name)
	s.byName[name] = v
	return v
}

// NumVars returns the number of variables.
func (s *System) NumVars() int { return len(s.names) }

// Name returns the name of a variable.
func (s *System) Name(v Var) string { return s.names[v] }

// Lookup returns the variable with the given name, if interned.
func (s *System) Lookup(name string) (Var, bool) {
	v, ok := s.byName[name]
	return v, ok
}

// AddLinear adds Σ terms rel k. Terms with zero coefficients are
// dropped; duplicate variables are combined.
func (s *System) AddLinear(terms []Term, rel Rel, k int64) {
	s.Lins = append(s.Lins, Linear{Terms: normalizeTerms(terms), Rel: rel, K: k})
}

// AddLE adds Σ terms ≤ k.
func (s *System) AddLE(terms []Term, k int64) { s.AddLinear(terms, LE, k) }

// AddGE adds Σ terms ≥ k.
func (s *System) AddGE(terms []Term, k int64) { s.AddLinear(terms, GE, k) }

// AddEQ adds Σ terms = k.
func (s *System) AddEQ(terms []Term, k int64) { s.AddLinear(terms, EQ, k) }

// AddVarEQ adds x = y.
func (s *System) AddVarEQ(x, y Var) {
	s.AddEQ([]Term{T(1, x), T(-1, y)}, 0)
}

// AddVarLE adds x ≤ y.
func (s *System) AddVarLE(x, y Var) {
	s.AddLE([]Term{T(1, x), T(-1, y)}, 0)
}

// AddConst fixes x = k.
func (s *System) AddConst(x Var, k int64) {
	s.AddEQ([]Term{T(1, x)}, k)
}

// AddSumEQ adds x = Σ ys.
func (s *System) AddSumEQ(x Var, ys []Var) {
	terms := []Term{T(1, x)}
	for _, y := range ys {
		terms = append(terms, T(-1, y))
	}
	s.AddEQ(terms, 0)
}

// AddCond adds (Σ ifTerms > 0) → (Σ thenTerms > 0). All coefficients
// must be positive; AddCond panics otherwise, since the propagation
// rules rely on it.
func (s *System) AddCond(ifTerms, thenTerms []Term) {
	for _, t := range append(append([]Term(nil), ifTerms...), thenTerms...) {
		if t.Coef <= 0 {
			panic("ilp: conditional constraints require positive coefficients")
		}
	}
	s.Conds = append(s.Conds, Cond{If: normalizeTerms(ifTerms), Then: normalizeTerms(thenTerms)})
}

// AddCondVar adds (x > 0) → (y > 0).
func (s *System) AddCondVar(x, y Var) {
	s.AddCond([]Term{T(1, x)}, []Term{T(1, y)})
}

// AddQuad adds x ≤ y·z.
func (s *System) AddQuad(x, y, z Var) {
	s.Quads = append(s.Quads, Quad{X: x, Y: y, Z: z})
}

// AddProductUpper adds x ≤ y₁·y₂·…·yₙ by chaining prequadratic
// constraints through fresh variables, exactly as in the proof of
// Theorem 3.1 (x ≤ x₁·z₁, z₁ ≤ x₂·z₂, …). n = 0 adds x ≤ 1 and n = 1
// adds x ≤ y₁.
func (s *System) AddProductUpper(x Var, ys []Var) {
	switch len(ys) {
	case 0:
		s.AddLE([]Term{T(1, x)}, 1)
		return
	case 1:
		s.AddVarLE(x, ys[0])
		return
	case 2:
		s.AddQuad(x, ys[0], ys[1])
		return
	}
	z := s.Var(fmt.Sprintf("$chain%d", len(s.names)))
	s.AddQuad(x, ys[0], z)
	s.AddProductUpper(z, ys[1:])
}

func normalizeTerms(terms []Term) []Term {
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

// String renders the system for debugging, one constraint per line.
func (s *System) String() string { return string(s.appendRows(nil)) }

// appendRows appends the String rendering to buf. It formats with
// strconv and byte appends, never fmt, because Digest renders every
// system a certificate pins.
func (s *System) appendRows(buf []byte) []byte {
	for _, l := range s.Lins {
		buf = s.appendTerms(buf, l.Terms)
		buf = append(buf, ' ')
		buf = append(buf, l.Rel.String()...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, l.K, 10)
		buf = append(buf, '\n')
	}
	for _, c := range s.Conds {
		buf = append(buf, '(')
		buf = s.appendTerms(buf, c.If)
		buf = append(buf, " > 0) -> ("...)
		buf = s.appendTerms(buf, c.Then)
		buf = append(buf, " > 0)\n"...)
	}
	for _, q := range s.Quads {
		buf = append(buf, s.names[q.X]...)
		buf = append(buf, " <= "...)
		buf = append(buf, s.names[q.Y]...)
		buf = append(buf, " * "...)
		buf = append(buf, s.names[q.Z]...)
		buf = append(buf, '\n')
	}
	return buf
}

func (s *System) formatTerms(terms []Term) string { return string(s.appendTerms(nil, terms)) }

// appendTerms renders a linear form: "0" when empty, otherwise the
// terms joined by " + " / " - " with coefficients other than ±1
// written as c*x.
func (s *System) appendTerms(buf []byte, terms []Term) []byte {
	if len(terms) == 0 {
		return append(buf, '0')
	}
	for i, t := range terms {
		coef := t.Coef
		if i > 0 {
			if coef < 0 {
				buf = append(buf, " - "...)
				coef = -coef
			} else {
				buf = append(buf, " + "...)
			}
		}
		if coef != 1 {
			buf = strconv.AppendInt(buf, coef, 10)
			buf = append(buf, '*')
		}
		buf = append(buf, s.names[t.Var]...)
	}
	return buf
}

// NamedValues renders a solver assignment as a name → value map, the
// portable form a certificate carries: it survives re-encoding because
// variable names (not indices) are the stable coordinates of a
// deterministically rebuilt system.
func (s *System) NamedValues(vals []int64) map[string]int64 {
	out := make(map[string]int64, len(vals))
	for i, v := range vals {
		if i < len(s.names) {
			out[s.names[i]] = v
		}
	}
	return out
}

// EvalNamed checks a name-keyed assignment against every constraint.
// Every variable of the system must be present in the map; extra names
// are rejected so a certificate cannot smuggle values for variables
// the system never constrained.
func (s *System) EvalNamed(vec map[string]int64) error {
	if len(vec) != len(s.names) {
		return fmt.Errorf("ilp: assignment names %d variables, system has %d", len(vec), len(s.names))
	}
	vals := make([]int64, len(s.names))
	for name, v := range vec {
		id, ok := s.byName[name]
		if !ok {
			return fmt.Errorf("ilp: assignment names unknown variable %q", name)
		}
		vals[id] = v
	}
	return s.Eval(vals)
}

// Digest fingerprints the system: variable count plus an FNV-1a hash
// of its canonical rendering (which includes variable names, so two
// systems agree only when they constrain the same named variables the
// same way). The rendering is canonicalized by sorting constraint
// lines: term order within a constraint is already normalized, but
// encoders may emit whole constraints in map-iteration order, and the
// digest must identify the constraint *set*, not one insertion order.
// Refutation certificates carry the digest of the system the solver
// found infeasible; the verifier recompiles the encoding and checks
// the fingerprints match.
func (s *System) Digest() string {
	// The lines are those of String() with trailing newlines trimmed,
	// so an empty system hashes one empty line.
	text := strings.TrimRight(string(s.appendRows(nil)), "\n")
	lines := make([]string, 0, len(s.Lins)+len(s.Conds)+len(s.Quads))
	for {
		i := strings.IndexByte(text, '\n')
		if i < 0 {
			lines = append(lines, text)
			break
		}
		lines = append(lines, text[:i])
		text = text[i+1:]
	}
	sort.Strings(lines)
	h := uint64(fnvOffset64)
	for _, l := range lines {
		for i := 0; i < len(l); i++ {
			h = (h ^ uint64(l[i])) * fnvPrime64
		}
		h = (h ^ '\n') * fnvPrime64
	}
	out := make([]byte, 0, 24)
	out = append(out, 'v')
	out = strconv.AppendInt(out, int64(len(s.names)), 10)
	out = append(out, '-')
	return string(appendHex16(out, h))
}

// FNV-1a (64-bit) parameters, as in hash/fnv; hashing inline spares
// the hash.Hash allocation.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// appendHex16 appends v as 16 zero-padded lowercase hex digits (the
// %016x rendering).
func appendHex16(buf []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		buf = append(buf, digits[(v>>uint(shift))&0xf])
	}
	return buf
}

// Eval checks a full assignment against every constraint and returns
// nil if all hold (used by tests and by the solver at leaves).
func (s *System) Eval(vals []int64) error {
	if len(vals) != len(s.names) {
		return fmt.Errorf("ilp: assignment has %d values for %d variables", len(vals), len(s.names))
	}
	for _, v := range vals {
		if v < 0 {
			return fmt.Errorf("ilp: negative value")
		}
	}
	evalSum := func(terms []Term) int64 {
		var sum int64
		for _, t := range terms {
			sum += t.Coef * vals[t.Var]
		}
		return sum
	}
	for _, l := range s.Lins {
		sum := evalSum(l.Terms)
		ok := false
		switch l.Rel {
		case LE:
			ok = sum <= l.K
		case GE:
			ok = sum >= l.K
		case EQ:
			ok = sum == l.K
		}
		if !ok {
			return fmt.Errorf("ilp: violated: %s %s %d (lhs=%d)", s.formatTerms(l.Terms), l.Rel, l.K, sum)
		}
	}
	for _, c := range s.Conds {
		if evalSum(c.If) > 0 && evalSum(c.Then) <= 0 {
			return fmt.Errorf("ilp: violated conditional: (%s > 0) -> (%s > 0)", s.formatTerms(c.If), s.formatTerms(c.Then))
		}
	}
	for _, q := range s.Quads {
		if vals[q.X] > vals[q.Y]*vals[q.Z] {
			return fmt.Errorf("ilp: violated: %s <= %s * %s (%d > %d*%d)",
				s.names[q.X], s.names[q.Y], s.names[q.Z], vals[q.X], vals[q.Y], vals[q.Z])
		}
	}
	return nil
}

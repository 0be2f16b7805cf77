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
//
// Propagation is event-driven. Each solve splits every linear row once
// into its ≤ halves, and a propagation round revisits only the halves
// whose variables' bounds changed since their last visit (every half
// in the root's first two rounds, and at the children of a node that
// ran out of rounds). Skipping the others changes no bound, verdict or
// search count.
package ilp

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
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
	names []string
	// byName indexes names; it is built on the first Var, Lookup or
	// EvalNamed call, so systems whose variables all come from NewVar
	// never hash a name while they are being compiled.
	byName map[string]Var
	// base is the size MarkBase recorded (zero when never marked).
	base   size
	marked bool
	// slab is the chunk the short rows' term slices are carved from.
	slab []Term
	// arena is the chunk NewVarFunc copies variable names into, and
	// scratch the buffer each name is rendered in first.
	arena   strings.Builder
	scratch []byte

	Lins  []Linear
	Conds []Cond
	Quads []Quad
}

// size counts a system's variables and rows of each form.
type size struct{ vars, lins, conds, quads int }

// NewSystem returns an empty system.
func NewSystem() *System { return &System{} }

// index returns the name index, building it on first use.
func (s *System) index() map[string]Var {
	if s.byName == nil {
		s.byName = make(map[string]Var, len(s.names))
		for i, name := range s.names {
			s.byName[name] = Var(i)
		}
	}
	return s.byName
}

// Var interns a variable by name and returns its id.
func (s *System) Var(name string) Var {
	if v, ok := s.index()[name]; ok {
		return v
	}
	return s.NewVar(name)
}

// NewVar adds a variable the caller knows is not interned yet (the
// encoders build every name from distinct coordinates) and returns its
// id.
func (s *System) NewVar(name string) Var {
	v := Var(len(s.names))
	s.names = append(s.names, name)
	if s.byName != nil {
		s.byName[name] = v
	}
	return v
}

// maxArena caps a name arena chunk in bytes.
const maxArena = 4096

// NewVarFunc is NewVar for a name rendered by appendName, which appends
// it to the buffer it is given and must not retain that buffer. Names
// are copied into shared arena chunks, which start small and double up
// to maxArena, so an encoder allocates per chunk rather than per name.
// A full chunk is replaced, never grown, so the names already cut from
// it stay valid.
func (s *System) NewVarFunc(appendName func([]byte) []byte) Var {
	s.scratch = appendName(s.scratch[:0])
	n := len(s.scratch)
	if s.arena.Cap()-s.arena.Len() < n {
		chunk := min(max(2*s.arena.Cap(), 4*n, 64), maxArena)
		s.arena = strings.Builder{}
		s.arena.Grow(max(chunk, n))
	}
	start := s.arena.Len()
	s.arena.Write(s.scratch)
	return s.NewVar(s.arena.String()[start:])
}

// NumVars returns the number of variables.
func (s *System) NumVars() int { return len(s.names) }

// Name returns the name of a variable.
func (s *System) Name(v Var) string { return s.names[v] }

// Lookup returns the variable with the given name, if interned.
func (s *System) Lookup(name string) (Var, bool) {
	v, ok := s.index()[name]
	return v, ok
}

// MarkBase records the current variables and rows as the system's
// base: the compiled encoding, before a decide loop appends its cuts,
// forced zeros and minimization bounds. Those only ever append, so
// BaseDigest can still fingerprint the base after the system was
// solved.
func (s *System) MarkBase() {
	s.base = s.size()
	s.marked = true
}

// maxSlab caps the slab chunk size in terms; rows longer than a
// quarter of it get their own allocation.
const maxSlab = 1024

// newTerms returns a zeroed slice of n terms for a row to own. Short
// rows share slab chunks, which start small and double up to maxSlab,
// so compiling a system allocates per chunk rather than per row; each
// slice is capped at its length, so no row can grow into its
// neighbour.
func (s *System) newTerms(n int) []Term {
	if n > maxSlab/4 {
		return make([]Term, n)
	}
	if len(s.slab)+n > cap(s.slab) {
		s.slab = make([]Term, 0, min(max(2*cap(s.slab), 4*n, 16), maxSlab))
	}
	at := len(s.slab)
	s.slab = s.slab[:at+n]
	return s.slab[at : at+n : at+n]
}

// AddLinear adds Σ terms rel k. Terms with zero coefficients are
// dropped; duplicate variables are combined. The system keeps its own
// copy, so callers may reuse terms.
func (s *System) AddLinear(terms []Term, rel Rel, k int64) {
	own := s.newTerms(len(terms))
	copy(own, terms)
	s.addOwned(own, rel, k)
}

// addOwned adds a linear row whose terms slice the system may keep and
// normalize in place.
func (s *System) addOwned(terms []Term, rel Rel, k int64) {
	s.Lins = append(s.Lins, Linear{Terms: normalizeTerms(terms), Rel: rel, K: k})
}

// AddLE adds Σ terms ≤ k.
func (s *System) AddLE(terms []Term, k int64) { s.AddLinear(terms, LE, k) }

// AddGE adds Σ terms ≥ k.
func (s *System) AddGE(terms []Term, k int64) { s.AddLinear(terms, GE, k) }

// AddEQ adds Σ terms = k.
func (s *System) AddEQ(terms []Term, k int64) { s.AddLinear(terms, EQ, k) }

// AddVarEQ adds x = y.
func (s *System) AddVarEQ(x, y Var) { s.addDiff(x, y, EQ) }

// AddVarLE adds x ≤ y.
func (s *System) AddVarLE(x, y Var) { s.addDiff(x, y, LE) }

// addDiff adds x - y rel 0 as an already normalized row: terms in
// variable order, and no terms at all when x and y coincide.
func (s *System) addDiff(x, y Var, rel Rel) {
	var terms []Term
	switch {
	case x < y:
		terms = s.newTerms(2)
		terms[0], terms[1] = Term{Var: x, Coef: 1}, Term{Var: y, Coef: -1}
	case x > y:
		terms = s.newTerms(2)
		terms[0], terms[1] = Term{Var: y, Coef: -1}, Term{Var: x, Coef: 1}
	}
	s.Lins = append(s.Lins, Linear{Terms: terms, Rel: rel})
}

// AddConst fixes x = k.
func (s *System) AddConst(x Var, k int64) { s.addUnit(x, EQ, k) }

// addUnit adds x rel k.
func (s *System) addUnit(x Var, rel Rel, k int64) {
	terms := s.newTerms(1)
	terms[0] = Term{Var: x, Coef: 1}
	s.Lins = append(s.Lins, Linear{Terms: terms, Rel: rel, K: k})
}

// AddSumEQ adds x = Σ ys.
func (s *System) AddSumEQ(x Var, ys []Var) {
	terms := s.newTerms(1 + len(ys))
	terms[0] = Term{Var: x, Coef: 1}
	for i, y := range ys {
		terms[1+i] = Term{Var: y, Coef: -1}
	}
	s.addOwned(terms, EQ, 0)
}

// AddCond adds (Σ ifTerms > 0) → (Σ thenTerms > 0). All coefficients
// must be positive; AddCond panics otherwise, since the propagation
// rules rely on it. The system keeps its own copies of both forms.
func (s *System) AddCond(ifTerms, thenTerms []Term) {
	for _, terms := range [2][]Term{ifTerms, thenTerms} {
		for _, t := range terms {
			if t.Coef <= 0 {
				panic("ilp: conditional constraints require positive coefficients")
			}
		}
	}
	both := s.newTerms(len(ifTerms) + len(thenTerms))
	copy(both[copy(both, ifTerms):], thenTerms)
	s.Conds = append(s.Conds, Cond{
		If:   normalizeTerms(both[:len(ifTerms):len(ifTerms)]),
		Then: normalizeTerms(both[len(ifTerms):]),
	})
}

// AddCondVar adds (x > 0) → (y > 0).
func (s *System) AddCondVar(x, y Var) {
	both := s.newTerms(2)
	both[0], both[1] = Term{Var: x, Coef: 1}, Term{Var: y, Coef: 1}
	s.Conds = append(s.Conds, Cond{If: both[:1:1], Then: both[1:]})
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
		s.addUnit(x, LE, 1)
		return
	case 1:
		s.AddVarLE(x, ys[0])
		return
	case 2:
		s.AddQuad(x, ys[0], ys[1])
		return
	}
	z := s.NewVarFunc(func(b []byte) []byte {
		return strconv.AppendInt(append(b, "$chain"...), int64(len(s.names)), 10)
	})
	s.AddQuad(x, ys[0], z)
	s.AddProductUpper(z, ys[1:])
}

// normalizeTerms sorts terms by variable in place, merges duplicate
// variables and drops zero coefficients, returning the normalized
// prefix. It allocates nothing.
func normalizeTerms(terms []Term) []Term {
	slices.SortFunc(terms, func(a, b Term) int { return cmp.Compare(a.Var, b.Var) })
	out := terms[:0]
	for i := 0; i < len(terms); {
		t := terms[i]
		for i++; i < len(terms) && terms[i].Var == t.Var; i++ {
			t.Coef += terms[i].Coef
		}
		if t.Coef != 0 {
			out = append(out, t)
		}
	}
	return out
}

// String renders the system for debugging, one constraint per line.
func (s *System) String() string {
	return string(s.appendRows(nil, nil, s.size()))
}

// size returns the system's current size.
func (s *System) size() size { return size{len(s.names), len(s.Lins), len(s.Conds), len(s.Quads)} }

// appendRows appends the String rendering of the rows within sz to buf,
// each ending in a newline, and when ends is non-nil records every
// row's end offset (before its newline) in it. It formats with strconv
// and byte appends, never fmt, because Digest renders every system a
// certificate pins.
func (s *System) appendRows(buf []byte, ends *[]int, sz size) []byte {
	end := func() {
		if ends != nil {
			*ends = append(*ends, len(buf))
		}
		buf = append(buf, '\n')
	}
	for _, l := range s.Lins[:sz.lins] {
		buf = s.appendTerms(buf, l.Terms)
		buf = append(buf, ' ')
		buf = append(buf, l.Rel.String()...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, l.K, 10)
		end()
	}
	for _, c := range s.Conds[:sz.conds] {
		buf = append(buf, '(')
		buf = s.appendTerms(buf, c.If)
		buf = append(buf, " > 0) -> ("...)
		buf = s.appendTerms(buf, c.Then)
		buf = append(buf, " > 0)"...)
		end()
	}
	for _, q := range s.Quads[:sz.quads] {
		buf = append(buf, s.names[q.X]...)
		buf = append(buf, " <= "...)
		buf = append(buf, s.names[q.Y]...)
		buf = append(buf, " * "...)
		buf = append(buf, s.names[q.Z]...)
		end()
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
	vals, err := s.Vector(vec)
	if err != nil {
		return err
	}
	return s.Eval(vals)
}

// Vector converts a name-keyed assignment naming exactly the system's
// variables into the dense vector indexed by Var.
func (s *System) Vector(vec map[string]int64) ([]int64, error) {
	if len(vec) != len(s.names) {
		return nil, fmt.Errorf("ilp: assignment names %d variables, system has %d", len(vec), len(s.names))
	}
	index := s.index()
	vals := make([]int64, len(s.names))
	for name, v := range vec {
		id, ok := index[name]
		if !ok {
			return nil, fmt.Errorf("ilp: assignment names unknown variable %q", name)
		}
		vals[id] = v
	}
	return vals, nil
}

// Digest fingerprints the system: variable count plus an FNV-1a hash
// of its canonical rendering (which includes variable names, so two
// systems agree only when they constrain the same named variables the
// same way). The rendering is canonicalized by sorting constraint
// lines: term order within a constraint is already normalized, but
// the digest must identify the constraint *set*, not one insertion
// order. Refutation certificates carry the digest of the system the
// solver found infeasible; the verifier recompiles the encoding and
// checks the fingerprints match.
func (s *System) Digest() string { return s.digest(s.size()) }

// BaseDigest is the Digest of the system as MarkBase left it,
// ignoring every variable and row added since: after a decide loop has
// appended cuts and bounds, it is still the digest a fresh compilation
// of the same encoding has. Unmarked systems digest whole.
func (s *System) BaseDigest() string {
	if !s.marked {
		return s.Digest()
	}
	return s.digest(s.base)
}

func (s *System) digest(sz size) string {
	// The lines are those of String() without their newlines, so an
	// empty system hashes one empty line.
	rows := sz.lins + sz.conds + sz.quads
	ends := make([]int, 0, rows)
	buf := s.appendRows(nil, &ends, sz)
	type line struct{ start, end int }
	lines := make([]line, 0, max(rows, 1))
	start := 0
	for _, e := range ends {
		lines = append(lines, line{start, e})
		start = e + 1
	}
	if rows == 0 {
		lines = append(lines, line{})
	}
	slices.SortFunc(lines, func(a, b line) int {
		return bytes.Compare(buf[a.start:a.end], buf[b.start:b.end])
	})
	h := uint64(fnvOffset64)
	for _, l := range lines {
		for _, c := range buf[l.start:l.end] {
			h = (h ^ uint64(c)) * fnvPrime64
		}
		h = (h ^ '\n') * fnvPrime64
	}
	out := make([]byte, 0, 24)
	out = append(out, 'v')
	out = strconv.AppendInt(out, int64(sz.vars), 10)
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

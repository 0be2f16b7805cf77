package consistency

import (
	"fmt"
	"sort"

	"repro/internal/certificate"
	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/prover"
)

// Explanation is the full account of an inconsistency: a minimal unsat
// core over Σ, the prover's rule derivation when the sound rule set
// reaches the contradiction, ranked repair hints, and the replayable
// certificate. Constraint references are Σ indices in the prover's
// canonical order — keys first (0..len(Keys)-1), then inclusions — so
// they line up with the indices cited by derivation steps.
type Explanation struct {
	// Verdict is the check's verdict on the full specification. Only
	// Inconsistent explanations carry a core.
	Verdict Verdict `json:"verdict"`
	// Method names the procedure that established the verdict.
	Method string `json:"method"`
	// Core lists the Σ indices of a minimal conflicting subset:
	// removing any single member (where removal keeps the set
	// well-formed) makes the verdict non-Inconsistent.
	Core []int `json:"core,omitempty"`
	// CoreConstraints renders each core member, parallel to Core.
	CoreConstraints []string `json:"core_constraints,omitempty"`
	// Derivation is the prover's ordered rule applications ending in
	// the document-scope contradiction. Its constraint citations are
	// indices into the full Σ, and certificate.Verify replays it. Empty
	// when the inconsistency was established by the solver instead of
	// the rule set.
	Derivation []prover.Step `json:"derivation,omitempty"`
	// Hints ranks drop/weaken candidates by how many of the enumerated
	// unsat cores they appear in.
	Hints []RepairHint `json:"hints,omitempty"`
	// Cores counts the distinct unsat cores enumerated for ranking.
	Cores int `json:"cores"`
	// Checks counts the decisions made by the full procedure: the check
	// of the whole specification plus every distinct constraint subset
	// the minimizer decided by a full check because saturation did not
	// refute it. A subset is decided at most once per explanation.
	Checks int `json:"checks"`
	// Certificate is the verdict's provenance; for prover refutations
	// it carries the derivation and verifies by pure replay.
	Certificate *certificate.Certificate `json:"certificate,omitempty"`
}

// RepairHint is one ranked repair candidate.
type RepairHint struct {
	// Constraint is the candidate's Σ index.
	Constraint int `json:"constraint"`
	// Rendered is the constraint's text.
	Rendered string `json:"rendered"`
	// Action is "drop" when plain removal keeps Σ well-formed, or
	// "weaken" when the constraint is load-bearing for others (a key
	// still paired with a kept foreign key) and must be relaxed rather
	// than removed.
	Action string `json:"action"`
	// Cores is the number of enumerated unsat cores containing the
	// candidate; higher means removing it repairs more of the conflict
	// structure.
	Cores int `json:"cores"`
}

// maxCoreEnumeration bounds the hint-ranking enumeration: beyond the
// first core, one additional core is attempted per first-core member.
const maxCoreEnumeration = 8

// Explain decides the specification and, when it is inconsistent,
// shrinks Σ to a minimal unsat core by deletion-based minimization:
// each constraint is tentatively removed and the remainder re-checked —
// by re-saturating the prover when the rule set refutes it (cheap), by
// the full decision procedure otherwise — and kept exactly when the
// remainder stops being provably inconsistent. Consistent and Unknown
// specifications come back without a core.
func Explain(d *dtd.DTD, set *constraint.Set, opts Options) (Explanation, error) {
	opts.SkipWitness = true
	opts.Explain = true
	// An explanation carries no cost rows, so its checks record none.
	opts.Ledger, opts.explaining = nil, true
	ex := Explanation{}
	// One compiled DTD serves the first decision and every subset
	// decision and saturation of the minimizer.
	c := compile(d)
	res, err := c.check(set, opts)
	if err != nil {
		return ex, err
	}
	ex.Verdict = res.Verdict
	ex.Method = res.Method
	ex.Certificate = res.Certificate
	ex.Checks = 1
	if res.Verdict != Inconsistent {
		return ex, nil
	}
	if !c.lint.Satisfiable() {
		// The DTD alone is the whole conflict; the constraint core is
		// empty and there is nothing to repair in Σ.
		return ex, nil
	}

	m := newMinimizer(c, set, opts)
	core := m.shrink(allIndices(set))

	ex.Core = core
	ex.CoreConstraints = make([]string, len(core))
	for i, c := range core {
		ex.CoreConstraints[i] = renderConstraint(set, c)
	}
	if deriv, ok := m.derivationFor(core); ok {
		ex.Derivation = deriv
		if !opts.SkipCertificate {
			ex.Certificate = certificate.FromProver(deriv,
				fmt.Sprintf("minimal core of %d constraints saturates to the document-scope contradiction", len(core)))
		}
	}

	ex.Hints, ex.Cores = m.hints(core)
	ex.Checks = m.checks + 1
	if m.err != nil {
		return Explanation{}, m.err
	}
	return ex, nil
}

// minimizer runs deletion-based core extraction with the prover as the
// fast inconsistency oracle and the full check as the fallback.
type minimizer struct {
	// form is the compiled DTD, shared by every subset decision and
	// saturation.
	form *compiled
	set  *constraint.Set
	opts Options
	// decided memoizes the outcome of every subset decided so far,
	// keyed by the subset's Σ-membership bitset, so shrink, hints and
	// derivationFor never decide one subset twice.
	decided map[string]decision
	key     []byte // scratch bitset for keyOf
	checks  int
	// err records the first aborted sub-check, so a fired context stops
	// the whole explanation instead of silently weakening the core.
	err error
}

// decision is the memoized outcome of one subset.
type decision struct {
	inconsistent bool
	// derivation is the prover's refutation of the subset, in
	// subset-local Σ indices; nil when saturation did not decide it.
	derivation []prover.Step
}

func newMinimizer(form *compiled, set *constraint.Set, opts Options) *minimizer {
	opts.Explain = false // subsets run the plain pipeline; we saturate explicitly
	opts.SkipWitness = true
	opts.SkipCertificate = true
	return &minimizer{
		form:    form,
		set:     set,
		opts:    opts,
		decided: map[string]decision{},
		key:     make([]byte, (prover.ConstraintCount(set)+7)/8),
	}
}

// keyOf renders the Σ-membership bitset of indices into the scratch
// key; callers convert it to a string only to store it.
func (m *minimizer) keyOf(indices []int) []byte {
	clear(m.key)
	for _, i := range indices {
		m.key[i>>3] |= 1 << (i & 7)
	}
	return m.key
}

// allIndices lists every Σ index in the prover's canonical order.
func allIndices(set *constraint.Set) []int {
	out := make([]int, prover.ConstraintCount(set))
	for i := range out {
		out[i] = i
	}
	return out
}

// subset materializes the constraint set holding exactly the given Σ
// indices (canonical order: keys first, then inclusions).
func (m *minimizer) subset(indices []int) *constraint.Set {
	keep := map[int]bool{}
	for _, i := range indices {
		keep[i] = true
	}
	out := &constraint.Set{}
	for i, k := range m.set.Keys {
		if keep[i] {
			out.AddKey(k)
		}
	}
	for i, in := range m.set.Incls {
		if keep[len(m.set.Keys)+i] {
			out.AddInclusion(in)
		}
	}
	return out
}

// inconsistent reports whether the subset named by indices is provably
// inconsistent: the prover refutes it, or the full decision procedure
// returns Inconsistent. Unknown outcomes count as "not provably
// inconsistent", which keeps minimization conservative — a member is
// only dropped when its absence still yields a proof. Each subset is
// decided once; repeats answer from the memo.
func (m *minimizer) inconsistent(indices []int) bool {
	if dec, ok := m.decided[string(m.keyOf(indices))]; ok {
		return dec.inconsistent
	}
	dec, ok := m.decide(indices)
	if ok {
		m.decided[string(m.keyOf(indices))] = dec
	}
	return dec.inconsistent
}

// decide decides one subset, reporting ok=false when the explanation
// has been aborted and the outcome means nothing. The context is
// consulted before any work: saturation cannot be interrupted, so an
// abort must stop the minimizer before it starts one.
func (m *minimizer) decide(indices []int) (decision, bool) {
	if m.err != nil {
		return decision{}, false
	}
	if err := ctxErr(m.opts.Ctx); err != nil {
		m.err = &AbortError{Err: err}
		return decision{}, false
	}
	sub := m.subset(indices)
	if sub.Validate(m.form.d) != nil {
		// An ill-formed subset (foreign key without its paired key)
		// decides nothing; treat as not provably inconsistent.
		return decision{}, true
	}
	if out := m.form.prover().Saturate(sub); out.Refuted {
		return decision{inconsistent: true, derivation: out.Derivation}, true
	}
	res, err := m.form.checkValidated(sub, m.opts)
	m.checks++
	if err != nil {
		if Aborted(err) {
			m.err = err
			return decision{}, false
		}
		return decision{}, true
	}
	return decision{inconsistent: res.Verdict == Inconsistent}, true
}

// shrink performs one deletion pass over the candidate indices,
// inclusions first (removing them can free their paired keys), and
// returns the surviving minimal core in ascending Σ order.
func (m *minimizer) shrink(candidates []int) []int {
	nKeys := len(m.set.Keys)
	order := append([]int(nil), candidates...)
	sort.Slice(order, func(i, j int) bool {
		ii, ij := order[i] >= nKeys, order[j] >= nKeys
		if ii != ij {
			return ii // inclusions first
		}
		return order[i] < order[j]
	})
	kept := map[int]bool{}
	for _, c := range candidates {
		kept[c] = true
	}
	current := func() []int {
		var out []int
		for _, c := range candidates {
			if kept[c] {
				out = append(out, c)
			}
		}
		return out
	}
	for _, c := range order {
		kept[c] = false
		if !m.inconsistent(current()) {
			kept[c] = true
		}
	}
	core := current()
	sort.Ints(core)
	return core
}

// derivationFor takes the core subset's saturation (from the memo, or
// run afresh) and, when the prover refutes it, remaps the derivation's
// constraint citations from subset-local Σ indices back to the full
// set's. The remapped
// derivation replays against the full specification: every cited
// constraint is identical and every scope the subset declares is also
// declared by the superset.
func (m *minimizer) derivationFor(core []int) ([]prover.Step, bool) {
	dec, ok := m.decided[string(m.keyOf(core))]
	if !ok {
		// The core went undecided only if shrink kept all of Σ, which
		// the initial check already decided; only the derivation is
		// missing, so saturating suffices.
		out := m.form.prover().Saturate(m.subset(core))
		dec.derivation = out.Derivation
	}
	if dec.derivation == nil {
		return nil, false
	}
	// Subset-local canonical order is the kept keys in order, then the
	// kept inclusions in order — i.e. core itself re-sorted keys-first,
	// which ascending Σ order already is.
	steps := append([]prover.Step(nil), dec.derivation...)
	for i := range steps {
		if len(steps[i].Constraints) == 0 {
			continue
		}
		mapped := make([]int, len(steps[i].Constraints))
		for j, c := range steps[i].Constraints {
			if c < 0 || c >= len(core) {
				return nil, false
			}
			mapped[j] = core[c]
		}
		steps[i].Constraints = mapped
	}
	return steps, true
}

// hints enumerates up to maxCoreEnumeration distinct unsat cores — the
// first one, then one per first-core member with that member excluded
// from the start — and ranks every constraint that appears in any of
// them by membership count. Ties break toward lower Σ indices.
func (m *minimizer) hints(first []int) ([]RepairHint, int) {
	cores := [][]int{first}
	seen := map[string]bool{string(m.keyOf(first)): true}
	for _, drop := range first {
		if len(cores) >= maxCoreEnumeration {
			break
		}
		var rest []int
		for _, c := range allIndices(m.set) {
			if c != drop {
				rest = append(rest, c)
			}
		}
		if !m.inconsistent(rest) {
			continue // dropping this member alone repairs the spec
		}
		core := m.shrink(rest)
		if key := string(m.keyOf(core)); !seen[key] {
			seen[key] = true
			cores = append(cores, core)
		}
	}
	count := map[int]int{}
	for _, core := range cores {
		for _, c := range core {
			count[c]++
		}
	}
	var members []int
	for c := range count {
		members = append(members, c)
	}
	sort.Slice(members, func(i, j int) bool {
		if count[members[i]] != count[members[j]] {
			return count[members[i]] > count[members[j]]
		}
		return members[i] < members[j]
	})
	hints := make([]RepairHint, len(members))
	for i, c := range members {
		hints[i] = RepairHint{
			Constraint: c,
			Rendered:   renderConstraint(m.set, c),
			Action:     m.action(c),
			Cores:      count[c],
		}
	}
	return hints, len(cores)
}

// action reports whether plainly dropping the constraint keeps Σ
// well-formed ("drop") or the constraint is load-bearing for others and
// must be relaxed instead ("weaken").
func (m *minimizer) action(c int) string {
	var rest []int
	for _, i := range allIndices(m.set) {
		if i != c {
			rest = append(rest, i)
		}
	}
	if m.subset(rest).Validate(m.form.d) != nil {
		return "weaken"
	}
	return "drop"
}

// renderConstraint gives the Σ member at the prover-canonical index its
// display text.
func renderConstraint(set *constraint.Set, i int) string {
	if c := prover.ConstraintAt(set, i); c != "" {
		return c
	}
	return fmt.Sprintf("Σ[%d]", i)
}

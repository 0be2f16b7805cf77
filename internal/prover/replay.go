package prover

import (
	"fmt"

	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/pathre"
)

// Replay re-checks a refutation derivation against (d, set) step by
// step: every rule application is re-evaluated from the specification
// alone (bound folds, automata constructions, arithmetic), with no
// search and no trust in the recorded values beyond "claims at most
// what the rule entails". It returns nil iff the derivation is a valid
// proof that the specification is inconsistent, i.e. it ends in a
// document-scope contradiction.
//
// The DTD folds come from a fresh Analysis of d, the tables the
// saturation engine reads; Replay never runs the engine itself.
func Replay(d *dtd.DTD, set *constraint.Set, steps []Step) error {
	if d == nil || set == nil {
		return fmt.Errorf("prover: replay needs a DTD and a constraint set")
	}
	if err := d.Validate(); err != nil {
		return fmt.Errorf("prover: replay on invalid DTD: %w", err)
	}
	if len(steps) == 0 {
		return fmt.Errorf("prover: empty derivation")
	}
	last := steps[len(steps)-1].Fact
	if last.Kind != FactFalse || last.Scope != "" {
		return fmt.Errorf("prover: derivation does not end in a document-scope contradiction")
	}
	r := &replayer{d: d, a: AnalyzeValidated(d, d.IsRecursive()), set: set, steps: steps}
	for i := range steps {
		if err := r.check(i); err != nil {
			return fmt.Errorf("prover: step %d (%s): %w", i, steps[i].Rule, err)
		}
	}
	return nil
}

type replayer struct {
	d     *dtd.DTD
	a     *Analysis
	set   *constraint.Set
	steps []Step
}

// typeID returns the id of a declared element type, and an error for
// any other name.
func (r *replayer) typeID(name string) (int32, error) {
	id, ok := r.a.typeID(name)
	if !ok {
		return 0, fmt.Errorf("type %q is not declared", name)
	}
	return id, nil
}

// count resolves a count quantity to its Analysis row (0 for the
// document, σ+1 for the content of a σ node) and its type id.
func (r *replayer) count(q Quantity) (row int, tau int32, err error) {
	if q.Scope != "" {
		s, err := r.typeID(q.Scope)
		if err != nil {
			return 0, 0, err
		}
		row = int(s) + 1
	}
	tau, err = r.typeID(q.Type)
	return row, tau, err
}

// occ returns the interval of τ occurrences per word of σ's content
// model, zero when the model does not reference τ.
func (r *replayer) occ(sigma, tau int32) occRange {
	start, edges := r.a.occTables()
	for _, e := range edges[start[tau]:start[tau+1]] {
		if e.sigma == sigma {
			return e.occRange
		}
	}
	return occRange{}
}

// regionDFA returns the node-language DFA of a region named in a fact,
// rebuilt from its rendered path (pathre rendering round-trips through
// Parse).
func (r *replayer) regionDFA(reg Region) (*pathre.DFA, error) {
	if _, err := r.typeID(reg.Type); err != nil {
		return nil, err
	}
	beta, err := pathre.Parse(reg.Path)
	if err != nil {
		return nil, fmt.Errorf("region path %q: %w", reg.Path, err)
	}
	return r.a.nodeDFA(reg, beta), nil
}

// prem returns the j-th premise fact of step i, enforcing that premises
// point strictly backwards.
func (r *replayer) prem(i, j int) (Fact, error) {
	ps := r.steps[i].Premises
	if j >= len(ps) {
		return Fact{}, fmt.Errorf("missing premise %d", j)
	}
	p := ps[j]
	if p < 0 || p >= i {
		return Fact{}, fmt.Errorf("premise %d out of order", p)
	}
	return r.steps[p].Fact, nil
}

func (r *replayer) nPrems(i, n int) error {
	if len(r.steps[i].Premises) != n {
		return fmt.Errorf("want %d premises, have %d", n, len(r.steps[i].Premises))
	}
	return nil
}

// key returns the key at Σ index j of step i's citation list.
func (r *replayer) key(i, j int) (constraint.Key, int, error) {
	cs := r.steps[i].Constraints
	if j >= len(cs) {
		return constraint.Key{}, 0, fmt.Errorf("missing constraint citation")
	}
	idx := cs[j]
	if idx < 0 || idx >= len(r.set.Keys) {
		return constraint.Key{}, 0, fmt.Errorf("Σ index %d is not a key", idx)
	}
	return r.set.Keys[idx], idx, nil
}

// incl returns the inclusion at Σ index j of step i's citation list.
func (r *replayer) incl(i, j int) (constraint.Inclusion, int, error) {
	cs := r.steps[i].Constraints
	if j >= len(cs) {
		return constraint.Inclusion{}, 0, fmt.Errorf("missing constraint citation")
	}
	idx := cs[j] - len(r.set.Keys)
	if idx < 0 || idx >= len(r.set.Incls) {
		return constraint.Inclusion{}, 0, fmt.Errorf("Σ index %d is not an inclusion", cs[j])
	}
	return r.set.Incls[idx], cs[j], nil
}

// checkQ validates that a quantity speaks about declared pieces of the
// DTD.
func (r *replayer) checkQ(q Quantity) error {
	if _, _, err := r.count(q); err != nil {
		return fmt.Errorf("quantity %s: %w", q, err)
	}
	if q.Ext && !r.d.Element(q.Type).HasAttr(q.Attr) {
		return fmt.Errorf("quantity over undeclared attribute %s.%s", q.Type, q.Attr)
	}
	if !q.Ext && q.Path != "" {
		return fmt.Errorf("path-restricted counts are not in the fact language")
	}
	return nil
}

func (r *replayer) check(i int) error {
	st := r.steps[i]
	f := st.Fact
	for _, c := range st.Constraints {
		if c < 0 || c >= ConstraintCount(r.set) {
			return fmt.Errorf("Σ index %d out of range", c)
		}
	}
	switch f.Kind {
	case FactLower, FactUpper:
		if err := r.checkQ(f.Q1); err != nil {
			return err
		}
	case FactLe:
		if err := r.checkQ(f.Q1); err != nil {
			return err
		}
		if err := r.checkQ(f.Q2); err != nil {
			return err
		}
		if f.Q1.Scope != f.Q2.Scope {
			return fmt.Errorf("gap fact mixes scopes %q and %q", f.Q1.Scope, f.Q2.Scope)
		}
	}

	switch st.Rule {
	case "root-count":
		if f.Q1 != (Quantity{Type: r.d.Root}) || f.K != 1 ||
			(f.Kind != FactLower && f.Kind != FactUpper) {
			return fmt.Errorf("root-count only yields count(root) = 1 at document scope")
		}
		return nil

	case "dtd-lower", "dtd-upper", "dtd-gap":
		if r.a.recursive {
			return fmt.Errorf("DTD cardinality folds require a non-recursive DTD")
		}
		row, tau, err := r.count(f.Q1)
		if err != nil {
			return err
		}
		switch st.Rule {
		case "dtd-lower":
			if f.Kind != FactLower || f.Q1.Ext {
				return fmt.Errorf("want a count lower bound")
			}
			b := r.a.countBounds(row, tau)
			if f.K > int64(b.Min) {
				return fmt.Errorf("claimed %s ≥ %d but the minimum is %d", f.Q1, f.K, b.Min)
			}
		case "dtd-upper":
			if f.Kind != FactUpper || f.Q1.Ext {
				return fmt.Errorf("want a count upper bound")
			}
			b := r.a.countBounds(row, tau)
			if !b.Bounded {
				return fmt.Errorf("%s has no finite maximum", f.Q1)
			}
			if f.K < int64(b.Max) {
				return fmt.Errorf("claimed %s ≤ %d but the maximum is %d", f.Q1, f.K, b.Max)
			}
		case "dtd-gap":
			if f.Kind != FactLe || f.Q1.Ext || f.Q2.Ext || f.Q1.Type == f.Q2.Type {
				return fmt.Errorf("want a gap between two distinct counts")
			}
			sigma, err := r.typeID(f.Q2.Type)
			if err != nil {
				return err
			}
			g := r.a.gap(row, sigma, tau)
			if g == negInf || f.K > int64(g) {
				return fmt.Errorf("claimed gap %d exceeds the true minimum difference", f.K)
			}
		}
		return nil

	case "key-ext":
		k, _, err := r.key(i, 0)
		if err != nil {
			return err
		}
		if f.Kind != FactLe || f.K != 0 || f.Q1.Ext || !f.Q2.Ext {
			return fmt.Errorf("want count(τ) ≤ ext(τ.l)")
		}
		if !typeBased(k.Target) || k.Target.Type != f.Q1.Type ||
			f.Q2.Type != f.Q1.Type || k.Target.Attrs[0] != f.Q2.Attr {
			return fmt.Errorf("cited key does not cover %s", f.Q2)
		}
		if k.Context != "" && k.Context != f.Q1.Scope {
			return fmt.Errorf("relative key applied outside its context")
		}
		return nil

	case "attr-ext":
		if f.Kind != FactLe || f.K != 0 || !f.Q1.Ext || f.Q2.Ext ||
			f.Q1.Path != "" || f.Q1.Type != f.Q2.Type {
			return fmt.Errorf("want ext(τ.l) ≤ count(τ)")
		}
		return nil

	case "attr-pos":
		if err := r.nPrems(i, 1); err != nil {
			return err
		}
		p, err := r.prem(i, 0)
		if err != nil {
			return err
		}
		if p.Kind != FactLower || p.Q1.Ext || p.K < 1 {
			return fmt.Errorf("premise must be a positive count lower bound")
		}
		if f.Kind != FactLower || !f.Q1.Ext || f.Q1.Path != "" || f.K > 1 ||
			f.Q1.Type != p.Q1.Type || f.Q1.Scope != p.Q1.Scope {
			return fmt.Errorf("conclusion must be ext ≥ 1 over the premise's type and scope")
		}
		return nil

	case "incl-le":
		in, _, err := r.incl(i, 0)
		if err != nil {
			return err
		}
		if f.Kind != FactLe || f.K != 0 || !f.Q1.Ext || !f.Q2.Ext ||
			f.Q1.Path != "" || f.Q2.Path != "" {
			return fmt.Errorf("want ext(σ.x) ≤ ext(τ.y)")
		}
		if !typeBased(in.From) || !typeBased(in.To) ||
			in.From.Type != f.Q1.Type || in.From.Attrs[0] != f.Q1.Attr ||
			in.To.Type != f.Q2.Type || in.To.Attrs[0] != f.Q2.Attr {
			return fmt.Errorf("cited inclusion does not relate %s and %s", f.Q1, f.Q2)
		}
		if in.Context != f.Q1.Scope {
			return fmt.Errorf("inclusion applied outside its scope")
		}
		return nil

	case "le-trans":
		if err := r.nPrems(i, 2); err != nil {
			return err
		}
		p1, err := r.prem(i, 0)
		if err != nil {
			return err
		}
		p2, err := r.prem(i, 1)
		if err != nil {
			return err
		}
		if p1.Kind != FactLe || p2.Kind != FactLe || p1.Q2 != p2.Q1 {
			return fmt.Errorf("premises must be chained gap facts")
		}
		if f.Kind != FactLe || f.Q1 != p1.Q1 || f.Q2 != p2.Q2 || f.K > p1.K+p2.K {
			return fmt.Errorf("conclusion claims more than the summed gaps")
		}
		return nil

	case "lower-prop":
		if err := r.nPrems(i, 2); err != nil {
			return err
		}
		lo, err := r.prem(i, 0)
		if err != nil {
			return err
		}
		le, err := r.prem(i, 1)
		if err != nil {
			return err
		}
		if lo.Kind != FactLower || le.Kind != FactLe || lo.Q1 != le.Q1 {
			return fmt.Errorf("premises must be a lower bound and a gap from its quantity")
		}
		if f.Kind != FactLower || f.Q1 != le.Q2 || f.K > lo.K+le.K {
			return fmt.Errorf("conclusion claims more than the propagated bound")
		}
		return nil

	case "upper-prop":
		if err := r.nPrems(i, 2); err != nil {
			return err
		}
		up, err := r.prem(i, 0)
		if err != nil {
			return err
		}
		le, err := r.prem(i, 1)
		if err != nil {
			return err
		}
		if up.Kind != FactUpper || le.Kind != FactLe || up.Q1 != le.Q2 {
			return fmt.Errorf("premises must be an upper bound and a gap into its quantity")
		}
		if f.Kind != FactUpper || f.Q1 != le.Q1 || f.K < up.K-le.K {
			return fmt.Errorf("conclusion claims more than the propagated bound")
		}
		return nil

	case "occ-div":
		if err := r.nPrems(i, 1); err != nil {
			return err
		}
		up, err := r.prem(i, 0)
		if err != nil {
			return err
		}
		if up.Kind != FactUpper || up.Q1.Ext || up.Q1.Path != "" {
			return fmt.Errorf("premise must be a type-count upper bound")
		}
		if f.Kind != FactUpper || f.Q1.Ext || f.Q1.Path != "" || f.Q1.Scope != up.Q1.Scope {
			return fmt.Errorf("conclusion must be a count upper bound at the premise's scope")
		}
		sigma, err := r.typeID(f.Q1.Type)
		if err != nil {
			return err
		}
		tau, err := r.typeID(up.Q1.Type)
		if err != nil {
			return err
		}
		u := int64(r.occ(sigma, tau).Lo)
		if u < 1 {
			return fmt.Errorf("words of %q's model need not contain %q", f.Q1.Type, up.Q1.Type)
		}
		if f.K < up.K/u {
			return fmt.Errorf("claimed %s ≤ %d but the occurrence floor only entails ≤ %d", f.Q1, f.K, up.K/u)
		}
		return nil

	case "occ-sum":
		if f.Kind != FactUpper || f.Q1.Ext || f.Q1.Path != "" {
			return fmt.Errorf("conclusion must be a type-count upper bound")
		}
		// The premise list must cover the full referencing-parent list
		// in declaration order, or a parent's contribution could be
		// silently dropped.
		tau, err := r.typeID(f.Q1.Type)
		if err != nil {
			return err
		}
		start, edges := r.a.occTables()
		parents := edges[start[tau]:start[tau+1]]
		if len(parents) == 0 {
			return fmt.Errorf("type %q has no referencing parents", f.Q1.Type)
		}
		if err := r.nPrems(i, len(parents)); err != nil {
			return err
		}
		// Context-scoped counts cover proper descendants of the scope
		// node only, so the scope node's own children enter as a base
		// term; the document root is counted but parentless.
		var total int64
		if f.Q1.Scope == "" {
			if f.Q1.Type == r.d.Root {
				total = 1
			}
		} else {
			scope, err := r.typeID(f.Q1.Scope)
			if err != nil {
				return err
			}
			rootOcc := r.occ(scope, tau).Hi
			if rootOcc >= occInf {
				return fmt.Errorf("the scope node alone admits unboundedly many %q children", f.Q1.Type)
			}
			total = int64(rootOcc)
		}
		for j, p := range parents {
			up, err := r.prem(i, j)
			if err != nil {
				return err
			}
			sigma := r.d.Names[p.sigma]
			if up.Kind != FactUpper || up.Q1 != (Quantity{Type: sigma, Scope: f.Q1.Scope}) {
				return fmt.Errorf("premise %d must bound count(%s) at the conclusion's scope", j, sigma)
			}
			if p.Hi >= occInf {
				return fmt.Errorf("%q's model admits unboundedly many %q children", sigma, f.Q1.Type)
			}
			total += int64(p.Hi) * up.K
			if total > gapCap {
				total = gapCap
			}
		}
		if f.K < total {
			return fmt.Errorf("claimed %s ≤ %d but the occurrence ceilings only entail ≤ %d", f.Q1, f.K, total)
		}
		return nil

	case "zero-dom":
		if err := r.nPrems(i, 1); err != nil {
			return err
		}
		p, err := r.prem(i, 0)
		if err != nil {
			return err
		}
		if p.Kind != FactUpper || p.Q1.Ext || p.Q1.Scope != "" || p.K > 0 {
			return fmt.Errorf("premise must be a document-scope zero count bound")
		}
		if f.Kind != FactUpper || f.Q1.Ext || f.Q1.Scope != "" || f.K < 0 {
			return fmt.Errorf("conclusion must be a document-scope count upper bound ≥ 0")
		}
		if f.Q1.Type == p.Q1.Type {
			return fmt.Errorf("zero-dom must conclude about a different type")
		}
		avoided, err := r.typeID(p.Q1.Type)
		if err != nil {
			return err
		}
		tau, err := r.typeID(f.Q1.Type)
		if err != nil {
			return err
		}
		if r.a.reachableAvoiding(avoided)[tau] {
			return fmt.Errorf("%q is reachable from the root without %q", f.Q1.Type, p.Q1.Type)
		}
		return nil

	case "scope-unsat":
		if err := r.nPrems(i, 1); err != nil {
			return err
		}
		p, err := r.prem(i, 0)
		if err != nil {
			return err
		}
		if p.Kind != FactFalse || p.Scope == "" {
			return fmt.Errorf("premise must be a context-scope contradiction")
		}
		if f.Kind != FactUpper || f.Q1.Ext || f.K < 0 ||
			f.Q1 != (Quantity{Type: p.Scope}) {
			return fmt.Errorf("conclusion must bound count(%s) at document scope", p.Scope)
		}
		return nil

	case "contra-interval":
		if err := r.nPrems(i, 2); err != nil {
			return err
		}
		lo, err := r.prem(i, 0)
		if err != nil {
			return err
		}
		up, err := r.prem(i, 1)
		if err != nil {
			return err
		}
		if lo.Kind != FactLower || up.Kind != FactUpper || lo.Q1 != up.Q1 || lo.K <= up.K {
			return fmt.Errorf("premises do not form an empty interval")
		}
		if f.Kind != FactFalse || f.Scope != lo.Q1.Scope {
			return fmt.Errorf("conclusion must contradict the quantity's scope")
		}
		return nil

	case "contra-negative":
		if err := r.nPrems(i, 1); err != nil {
			return err
		}
		up, err := r.prem(i, 0)
		if err != nil {
			return err
		}
		if up.Kind != FactUpper || up.K >= 0 {
			return fmt.Errorf("premise must be a negative upper bound")
		}
		if f.Kind != FactFalse || f.Scope != up.Q1.Scope {
			return fmt.Errorf("conclusion must contradict the quantity's scope")
		}
		return nil

	case "contra-cycle":
		if err := r.nPrems(i, 1); err != nil {
			return err
		}
		le, err := r.prem(i, 0)
		if err != nil {
			return err
		}
		if le.Kind != FactLe || le.Q1 != le.Q2 || le.K < 1 {
			return fmt.Errorf("premise must be a positive self-gap")
		}
		if f.Kind != FactFalse || f.Scope != le.Q1.Scope {
			return fmt.Errorf("conclusion must contradict the quantity's scope")
		}
		return nil

	case "incl-sub":
		in, _, err := r.incl(i, 0)
		if err != nil {
			return err
		}
		if in.Context != "" || !in.From.Unary() || !in.To.Unary() {
			return fmt.Errorf("cited inclusion is not absolute and unary")
		}
		if f.Kind != FactSub || f.R1 != regionOf(in.From) || f.R2 != regionOf(in.To) {
			return fmt.Errorf("conclusion does not match the cited inclusion's regions")
		}
		return nil

	case "sub-trans":
		if err := r.nPrems(i, 2); err != nil {
			return err
		}
		p1, err := r.prem(i, 0)
		if err != nil {
			return err
		}
		p2, err := r.prem(i, 1)
		if err != nil {
			return err
		}
		if p1.Kind != FactSub || p2.Kind != FactSub || p1.R2 != p2.R1 {
			return fmt.Errorf("premises must be chained subset facts")
		}
		if f.Kind != FactSub || f.R1 != p1.R1 || f.R2 != p2.R2 {
			return fmt.Errorf("conclusion does not chain the premises")
		}
		return nil

	case "sub-lower":
		if err := r.nPrems(i, 2); err != nil {
			return err
		}
		lo, err := r.prem(i, 0)
		if err != nil {
			return err
		}
		sb, err := r.prem(i, 1)
		if err != nil {
			return err
		}
		if lo.Kind != FactLower || sb.Kind != FactSub || lo.Q1 != sb.R1.quantity() {
			return fmt.Errorf("premises must bound the subset region's extent")
		}
		if f.Kind != FactLower || f.Q1 != sb.R2.quantity() || f.K > lo.K {
			return fmt.Errorf("conclusion claims more than the subset bound")
		}
		return nil

	case "key-disjoint":
		k, _, err := r.key(i, 0)
		if err != nil {
			return err
		}
		if k.Context != "" || !k.Target.Unary() {
			return fmt.Errorf("cited key is not absolute and unary")
		}
		if f.Kind != FactDisjoint || f.R1.Type != k.Target.Type ||
			f.R2.Type != k.Target.Type || f.R1.Attr != k.Target.Attrs[0] ||
			f.R2.Attr != k.Target.Attrs[0] {
			return fmt.Errorf("regions do not match the cited key's type and attribute")
		}
		d1, err := r.regionDFA(f.R1)
		if err != nil {
			return err
		}
		d2, err := r.regionDFA(f.R2)
		if err != nil {
			return err
		}
		kdfa, err := r.regionDFA(regionOf(k.Target))
		if err != nil {
			return err
		}
		if !kdfa.Contains(d1) || !kdfa.Contains(d2) {
			return fmt.Errorf("key does not cover both regions")
		}
		if !emptyIntersect(d1, d2) {
			return fmt.Errorf("region node languages overlap")
		}
		return nil

	case "region-nonempty":
		if f.Kind != FactLower || !f.Q1.Ext || f.Q1.Path == "" ||
			f.Q1.Scope != "" || f.K > 1 {
			return fmt.Errorf("want a document-scope region extent ≥ 1")
		}
		reg := Region{Path: f.Q1.Path, Type: f.Q1.Type, Attr: f.Q1.Attr}
		dfa, err := r.regionDFA(reg)
		if err != nil {
			return err
		}
		if !r.a.forcedNonEmpty(reg, dfa) {
			return fmt.Errorf("region is not forced by the DTD")
		}
		return nil

	case "region-contra":
		if err := r.nPrems(i, 3); err != nil {
			return err
		}
		lo, err := r.prem(i, 0)
		if err != nil {
			return err
		}
		sb, err := r.prem(i, 1)
		if err != nil {
			return err
		}
		dj, err := r.prem(i, 2)
		if err != nil {
			return err
		}
		if lo.Kind != FactLower || lo.K < 1 || sb.Kind != FactSub ||
			dj.Kind != FactDisjoint || lo.Q1 != sb.R1.quantity() {
			return fmt.Errorf("premises must be a non-empty subset of a disjoint region")
		}
		if !(dj.R1 == sb.R1 && dj.R2 == sb.R2) && !(dj.R1 == sb.R2 && dj.R2 == sb.R1) {
			return fmt.Errorf("disjointness premise does not match the subset premise")
		}
		if f.Kind != FactFalse || f.Scope != "" {
			return fmt.Errorf("conclusion must be the document-scope contradiction")
		}
		return nil
	}
	return fmt.Errorf("unknown rule %q", st.Rule)
}

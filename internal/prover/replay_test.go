package prover_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/consistency"
	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/experiments"
	"repro/internal/prover"
)

// refutation is a spec the prover refutes, with its derivation.
type refutation struct {
	name  string
	d     *dtd.DTD
	set   *constraint.Set
	steps []prover.Step
}

// refutations saturates the testdata inconsistent specs, members of the
// paper's families and a zero-dom spec. Between them their derivations
// apply every rule that reads a DTD fold.
func refutations(t *testing.T) []refutation {
	t.Helper()
	type spec struct {
		name string
		d    *dtd.DTD
		set  *constraint.Set
	}
	var specs []spec
	for _, p := range []struct{ dtd, keys string }{{"geography", "geography"}, {"school", "school-extended"}} {
		d, set := prover.LoadSpec(t, p.dtd, p.keys)
		specs = append(specs, spec{"testdata/" + p.keys, d, set})
	}
	tract := experiments.Thm35Tractable(8, false)
	specs = append(specs, spec{"tractable/width=8", tract.D, tract.Set})
	rng := rand.New(rand.NewSource(1))
	for {
		if in := experiments.Thm35SubsetSum(rng, 4, 256); in.Expect == consistency.Inconsistent {
			specs = append(specs, spec{"subsetsum/seed=1", in.D, in.Set})
			break
		}
	}
	d, set := zeroDomSpec(t)
	specs = append(specs, spec{"zero-dom", d, set})

	var out []refutation
	for _, s := range specs {
		o := prover.Saturate(s.d, s.set)
		if !o.Refuted {
			t.Fatalf("%s: not refuted", s.name)
		}
		if err := prover.Replay(s.d, s.set, o.Derivation); err != nil {
			t.Fatalf("%s: the derivation does not replay: %v", s.name, err)
		}
		out = append(out, refutation{s.name, s.d, s.set, o.Derivation})
	}
	return out
}

// zeroDomSpec is refuted through zero-dom: the relative constraints
// leave no room for a p node, so count(p) ≤ 0, and t occurs only below
// p, though the inclusion u.y ⊆ t.x needs a t node for the forced u.
func zeroDomSpec(t *testing.T) (*dtd.DTD, *constraint.Set) {
	t.Helper()
	d := dtd.MustParse(`<!ELEMENT r (p*, u)>
<!ELEMENT p (c, c, d, e)>
<!ELEMENT e (t*)>
<!ELEMENT c EMPTY>
<!ELEMENT d EMPTY>
<!ELEMENT t EMPTY>
<!ELEMENT u EMPTY>
<!ATTLIST c k CDATA #REQUIRED>
<!ATTLIST d z CDATA #REQUIRED>
<!ATTLIST t x CDATA #REQUIRED>
<!ATTLIST u y CDATA #REQUIRED>`)
	set, err := constraint.ParseSet("p(c.k -> c)\np(d.z -> d)\np(c.k ⊆ d.z)\nt.x -> t\nu.y ⊆ t.x\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(d); err != nil {
		t.Fatal(err)
	}
	return d, set
}

// replay runs Replay and turns a panic into an error.
func replay(d *dtd.DTD, set *constraint.Set, steps []prover.Step) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return prover.Replay(d, set, steps)
}

// withStep returns a copy of steps whose step i is st.
func withStep(steps []prover.Step, i int, st prover.Step) []prover.Step {
	out := append([]prover.Step(nil), steps...)
	out[i] = st
	return out
}

// TestReplayRejectsTampering checks that Replay rejects derivations
// that claim more than the specification entails. Every fold-reading
// rule's recorded claim is tight: it replays, and the claim one past
// the fold is rejected at that very step.
func TestReplayRejectsTampering(t *testing.T) {
	refs := refutations(t)
	geo := refs[0]
	if err := prover.Replay(geo.d, geo.set, geo.steps[:len(geo.steps)-1]); err == nil {
		t.Error("Replay accepted a derivation without the final contradiction")
	}
	// Replaying against a weakened Σ must fail: the cited inclusion is
	// gone, so the incl-le step no longer checks.
	weak := geo.set.Clone()
	weak.Incls = nil
	if err := prover.Replay(geo.d, weak, geo.steps); err == nil {
		t.Error("Replay accepted a derivation against a Σ missing its constraints")
	}
	if err := prover.Replay(geo.d, geo.set, nil); err == nil {
		t.Error("Replay accepted an empty derivation")
	}

	// pastFold moves a step's claim one past what its rule entails: a
	// bound one past the fold, or a conclusion about a type just
	// outside it.
	more := func(st *prover.Step, _ refutation) { st.Fact.K++ }
	less := func(st *prover.Step, _ refutation) { st.Fact.K-- }
	pastFold := map[string][]func(st *prover.Step, ref refutation){
		"dtd-lower":       {more},
		"dtd-gap":         {more},
		"region-nonempty": {more},
		"dtd-upper":       {less},
		"occ-sum":         {less},
		"occ-div": {less, func(st *prover.Step, ref refutation) {
			// A type whose model lacks the premise's type.
			below := ref.steps[st.Premises[0]].Fact.Q1.Type
			for _, name := range ref.d.Names {
				if !slices.Contains(ref.d.Element(name).Content.Alphabet(), below) {
					st.Fact.Q1.Type = name
					return
				}
			}
		}},
		"zero-dom": {less, func(st *prover.Step, ref refutation) {
			st.Fact.Q1.Type = ref.d.Root // reachable without any other type
		}},
		// Two copies of one region overlap wherever the region has
		// nodes, so the key no longer makes them disjoint.
		"key-disjoint": {func(st *prover.Step, _ refutation) { st.Fact.R2 = st.Fact.R1 }},
	}
	seen := map[string]int{}
	for _, ref := range refs {
		for i, st := range ref.steps {
			for _, tamper := range pastFold[st.Rule] {
				seen[st.Rule]++
				tampered := st
				tamper(&tampered, ref)
				err := replay(ref.d, ref.set, withStep(ref.steps, i, tampered))
				want := fmt.Sprintf("step %d (%s)", i, st.Rule)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s: step %d %s claims %s, past the fold: got %v, want a rejection at %s",
						ref.name, i, st.Rule, tampered.Fact, err, want)
				}
			}
		}
	}
	for rule := range pastFold {
		if seen[rule] == 0 {
			t.Errorf("no derivation applies %s", rule)
		}
	}
}

// TestReplayRejectsHostileDerivations edits real derivations into
// hostile ones: an undeclared type, scope or attribute in every fact
// position the replayer reads, an unparsable region path, a forward,
// self or out-of-range premise, and an out-of-range Σ index. Replay
// must reject each with an error, never panic and never accept.
func TestReplayRejectsHostileDerivations(t *testing.T) {
	const bogus = "undeclared"
	// quantity edits quantity 1 or 2 of a count or extent fact.
	quantity := func(name string, which int, edit func(q *prover.Quantity) bool) hostileEdit {
		return hostileEdit{name, func(st *prover.Step, _, _ int) bool {
			switch f := &st.Fact; {
			case which == 1 && (f.Kind == prover.FactLower || f.Kind == prover.FactUpper || f.Kind == prover.FactLe):
				return edit(&f.Q1)
			case which == 2 && f.Kind == prover.FactLe:
				return edit(&f.Q2)
			}
			return false
		}}
	}
	// region edits region 1 or 2 of a subset or disjointness fact.
	region := func(name string, which int, edit func(r *prover.Region)) hostileEdit {
		return hostileEdit{name, func(st *prover.Step, _, _ int) bool {
			if st.Fact.Kind != prover.FactSub && st.Fact.Kind != prover.FactDisjoint {
				return false
			}
			if which == 1 {
				edit(&st.Fact.R1)
			} else {
				edit(&st.Fact.R2)
			}
			return true
		}}
	}
	typ := func(q *prover.Quantity) bool { q.Type = bogus; return true }
	scope := func(q *prover.Quantity) bool { q.Scope = bogus; return true }
	attr := func(q *prover.Quantity) bool { q.Attr = bogus; return q.Ext }
	path := func(q *prover.Quantity) bool {
		applies := q.Ext && q.Path != ""
		q.Path = bogus
		return applies
	}
	hostile := []hostileEdit{
		quantity("undeclared type in q1", 1, typ),
		quantity("undeclared scope in q1", 1, scope),
		quantity("undeclared attribute in q1", 1, attr),
		quantity("undeclared path symbol in q1", 1, path),
		quantity("undeclared type in q2", 2, typ),
		quantity("undeclared scope in q2", 2, scope),
		quantity("undeclared attribute in q2", 2, attr),
		region("undeclared type in r1", 1, func(r *prover.Region) { r.Type = bogus }),
		region("undeclared type in r2", 2, func(r *prover.Region) { r.Type = bogus }),
		region("undeclared attribute in r1", 1, func(r *prover.Region) { r.Attr = bogus }),
		region("undeclared attribute in r2", 2, func(r *prover.Region) { r.Attr = bogus }),
		region("unparsable path in r1", 1, func(r *prover.Region) { r.Path = "((" }),
		region("unparsable path in r2", 2, func(r *prover.Region) { r.Path = "((" }),
		{"undeclared scope of a contradiction", func(st *prover.Step, _, _ int) bool {
			st.Fact.Scope = bogus
			return st.Fact.Kind == prover.FactFalse
		}},
		{"self premise", func(st *prover.Step, i, _ int) bool { return setFirst(st.Premises, i) }},
		{"forward premise", func(st *prover.Step, i, _ int) bool { return setFirst(st.Premises, i+1) }},
		{"negative premise", func(st *prover.Step, _, _ int) bool { return setFirst(st.Premises, -1) }},
		{"premise past the derivation", func(st *prover.Step, _, n int) bool { return setFirst(st.Premises, n+7) }},
		{"negative Σ index", func(st *prover.Step, _, _ int) bool { return setFirst(st.Constraints, -1) }},
		{"Σ index past Σ", func(st *prover.Step, _, _ int) bool { return setFirst(st.Constraints, 1<<20) }},
		{"Σ index cited by a step that cites none", func(st *prover.Step, _, _ int) bool {
			if len(st.Constraints) > 0 {
				return false
			}
			st.Constraints = []int{1 << 20}
			return true
		}},
	}
	refs := refutations(t)
	for _, h := range hostile {
		applied := 0
		for _, ref := range refs {
			for i, st := range ref.steps {
				st.Premises = append([]int(nil), st.Premises...)
				st.Constraints = append([]int(nil), st.Constraints...)
				if !h.edit(&st, i, len(ref.steps)) {
					continue
				}
				applied++
				if err := replay(ref.d, ref.set, withStep(ref.steps, i, st)); err == nil || strings.HasPrefix(err.Error(), "panic") {
					t.Errorf("%s: %s at step %d (%s, %s): got %v, want a rejection", ref.name, h.name, i, st.Rule, st.Fact, err)
				}
			}
		}
		if applied == 0 {
			t.Errorf("%s: no derivation step has that position", h.name)
		}
	}
}

// hostileEdit turns step i of an n-step derivation hostile in place and
// reports whether the step has the edited position.
type hostileEdit struct {
	name string
	edit func(st *prover.Step, i, n int) bool
}

// setFirst sets xs[0] to v and reports whether xs is non-empty.
func setFirst(xs []int, v int) bool {
	if len(xs) == 0 {
		return false
	}
	xs[0] = v
	return true
}

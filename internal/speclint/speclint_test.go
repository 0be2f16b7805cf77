package speclint

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/dtd"
)

// parseSpec builds a spec from surface syntax without validating the
// constraints — tier-1 findings are the point of half these tests.
func parseSpec(t *testing.T, dtdSrc, keySrc string) (*dtd.DTD, *constraint.Set) {
	t.Helper()
	d, err := dtd.Parse(dtdSrc)
	if err != nil {
		t.Fatalf("dtd.Parse: %v", err)
	}
	set, err := constraint.ParseSet(keySrc)
	if err != nil {
		t.Fatalf("constraint.ParseSet: %v", err)
	}
	return d, set
}

// ruleIDs collects the distinct rule IDs of a report in order.
func ruleIDs(rep *Report) []string {
	var out []string
	seen := map[string]bool{}
	for _, d := range rep.Diags {
		if !seen[d.RuleID] {
			seen[d.RuleID] = true
			out = append(out, d.RuleID)
		}
	}
	return out
}

func hasRule(rep *Report, id string) bool {
	for _, d := range rep.Diags {
		if d.RuleID == id {
			return true
		}
	}
	return false
}

const cleanDTD = `
<!ELEMENT r (a, b*)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ATTLIST a k CDATA #REQUIRED>
<!ATTLIST b k CDATA #REQUIRED>
`

// TestRuleTable exercises every rule with a positive case (the rule
// fires, at its declared severity) and checks the spec variants used as
// negatives elsewhere stay quiet.
func TestRuleTable(t *testing.T) {
	key := func(typ, attr string) constraint.Key {
		return constraint.Key{Target: constraint.Target{Type: typ, Attrs: []string{attr}}}
	}
	cases := []struct {
		name string
		rule string
		spec func(t *testing.T) (*dtd.DTD, *constraint.Set)
	}{
		{"dtd-invalid", "SL001", func(t *testing.T) (*dtd.DTD, *constraint.Set) {
			// Root never defined: invalid by Definition 2.1.
			return dtd.New("r"), &constraint.Set{}
		}},
		{"undeclared-type", "SL002", func(t *testing.T) (*dtd.DTD, *constraint.Set) {
			d, _ := parseSpec(t, cleanDTD, "")
			return d, (&constraint.Set{}).AddKey(key("zz", "k"))
		}},
		{"undeclared-attr", "SL003", func(t *testing.T) (*dtd.DTD, *constraint.Set) {
			d, _ := parseSpec(t, cleanDTD, "")
			return d, (&constraint.Set{}).AddKey(key("a", "nope"))
		}},
		{"empty-attrs", "SL004", func(t *testing.T) (*dtd.DTD, *constraint.Set) {
			d, _ := parseSpec(t, cleanDTD, "")
			return d, (&constraint.Set{}).AddKey(constraint.Key{Target: constraint.Target{Type: "a"}})
		}},
		{"duplicate-attr", "SL005", func(t *testing.T) (*dtd.DTD, *constraint.Set) {
			d, _ := parseSpec(t, cleanDTD, "")
			return d, (&constraint.Set{}).AddKey(constraint.Key{
				Target: constraint.Target{Type: "a", Attrs: []string{"k", "k"}}})
		}},
		{"arity-mismatch", "SL006", func(t *testing.T) (*dtd.DTD, *constraint.Set) {
			d, _ := parseSpec(t, `
<!ELEMENT r (a, b)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ATTLIST a k CDATA #REQUIRED>
<!ATTLIST b k CDATA #REQUIRED>
<!ATTLIST b l CDATA #REQUIRED>
`, "")
			return d, (&constraint.Set{}).AddForeignKey(constraint.Inclusion{
				From: constraint.Target{Type: "a", Attrs: []string{"k"}},
				To:   constraint.Target{Type: "b", Attrs: []string{"k", "l"}},
			})
		}},
		{"missing-key", "SL007", func(t *testing.T) (*dtd.DTD, *constraint.Set) {
			d, _ := parseSpec(t, cleanDTD, "")
			return d, (&constraint.Set{}).AddInclusion(constraint.Inclusion{
				From: constraint.Target{Type: "a", Attrs: []string{"k"}},
				To:   constraint.Target{Type: "b", Attrs: []string{"k"}},
			})
		}},
		{"malformed-addressing", "SL008", func(t *testing.T) (*dtd.DTD, *constraint.Set) {
			// Relative key with two attributes: non-unary.
			d, err := dtd.Parse(`
<!ELEMENT r (a)>
<!ELEMENT a EMPTY>
<!ATTLIST a k CDATA #REQUIRED>
<!ATTLIST a l CDATA #REQUIRED>
`)
			if err != nil {
				t.Fatal(err)
			}
			return d, (&constraint.Set{}).AddKey(constraint.Key{
				Context: "r",
				Target:  constraint.Target{Type: "a", Attrs: []string{"k", "l"}}})
		}},
		{"duplicate-constraint", "SL009", func(t *testing.T) (*dtd.DTD, *constraint.Set) {
			d, _ := parseSpec(t, cleanDTD, "")
			return d, (&constraint.Set{}).AddKey(key("a", "k")).AddKey(key("a", "k"))
		}},
		{"dtd-unsatisfiable", "SL101", func(t *testing.T) (*dtd.DTD, *constraint.Set) {
			return parseSpec(t, `
<!ELEMENT r (a)>
<!ELEMENT a (a)>
`, "")
		}},
		{"nonproductive-type", "SL102", func(t *testing.T) (*dtd.DTD, *constraint.Set) {
			return parseSpec(t, `
<!ELEMENT r (a | b)>
<!ELEMENT a (a)>
<!ELEMENT b EMPTY>
`, "")
		}},
		{"unoccurrable-type", "SL103", func(t *testing.T) (*dtd.DTD, *constraint.Set) {
			// x is productive but only reachable through the dead (q, x)
			// branch: it never occurs in a conforming document.
			return parseSpec(t, `
<!ELEMENT r (b | (q, x))>
<!ELEMENT b EMPTY>
<!ELEMENT q (q)>
<!ELEMENT x EMPTY>
`, "")
		}},
		{"vacuous-constraint", "SL104", func(t *testing.T) (*dtd.DTD, *constraint.Set) {
			return parseSpec(t, `
<!ELEMENT r (b | (q, x))>
<!ELEMENT b EMPTY>
<!ELEMENT q (q)>
<!ELEMENT x EMPTY>
<!ATTLIST x k CDATA #REQUIRED>
`, "x.k -> x")
		}},
		{"vacuous-context", "SL105", func(t *testing.T) (*dtd.DTD, *constraint.Set) {
			return parseSpec(t, `
<!ELEMENT r (b | (q, x))>
<!ELEMENT b (c*)>
<!ELEMENT c EMPTY>
<!ELEMENT q (q)>
<!ELEMENT x (c*)>
<!ATTLIST c k CDATA #REQUIRED>
`, "x(c.k -> c)")
		}},
		{"cardinality-clash", "SL201", func(t *testing.T) (*dtd.DTD, *constraint.Set) {
			// Two s nodes, at most one t node, and the keys + foreign key
			// force count(s) ≤ count(t).
			return parseSpec(t, `
<!ELEMENT r (s, s, t?)>
<!ELEMENT s EMPTY>
<!ELEMENT t EMPTY>
<!ATTLIST s k CDATA #REQUIRED>
<!ATTLIST t k CDATA #REQUIRED>
`, `
s.k -> s
t.k -> t
s.k <= t.k
`)
		}},
		{"orphan-required-source", "SL202", func(t *testing.T) (*dtd.DTD, *constraint.Set) {
			// Every document is r(b); b's foreign key points at x, which
			// never occurs.
			return parseSpec(t, `
<!ELEMENT r (b | (q, x))>
<!ELEMENT b EMPTY>
<!ELEMENT q (q)>
<!ELEMENT x EMPTY>
<!ATTLIST b k CDATA #REQUIRED>
<!ATTLIST x k CDATA #REQUIRED>
`, `
x.k -> x
b.k <= x.k
`)
		}},
	}

	var sevByID = map[string]Severity{}
	for _, r := range Rules() {
		sevByID[r.ID] = r.Severity
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, set := tc.spec(t)
			rep := Run(d, set, nil)
			if !hasRule(rep, tc.rule) {
				t.Fatalf("rule %s did not fire; report: %v", tc.rule, ruleIDs(rep))
			}
			for _, diag := range rep.Diags {
				if diag.RuleID == tc.rule && diag.Severity != sevByID[tc.rule] {
					t.Errorf("severity = %v, want %v", diag.Severity, sevByID[tc.rule])
				}
			}
		})
	}
}

// TestNegativeCases: specs that must NOT trigger particular rules.
func TestNegativeCases(t *testing.T) {
	// A fully clean spec triggers nothing.
	d, set := parseSpec(t, cleanDTD, "a.k -> a\nb.k -> b\na.k <= b.k")
	rep := Run(d, set, nil)
	if len(rep.Diags) != 0 {
		t.Fatalf("clean spec produced findings: %v", rep.Diags)
	}

	// SL201 must not fire when the content model admits enough targets.
	d, set = parseSpec(t, `
<!ELEMENT r (s, s, t*)>
<!ELEMENT s EMPTY>
<!ELEMENT t EMPTY>
<!ATTLIST s k CDATA #REQUIRED>
<!ATTLIST t k CDATA #REQUIRED>
`, "s.k -> s\nt.k -> t\ns.k <= t.k")
	if rep := Run(d, set, nil); hasRule(rep, "SL201") {
		t.Fatalf("SL201 fired on a satisfiable cardinality profile")
	}

	// SL202 must not fire when the source is optional.
	d, set = parseSpec(t, `
<!ELEMENT r (b? , c)>
<!ELEMENT b EMPTY>
<!ELEMENT c (q?)>
<!ELEMENT q (q)>
<!ATTLIST b k CDATA #REQUIRED>
`, "")
	set = (&constraint.Set{}).AddForeignKey(constraint.Inclusion{
		From: constraint.Target{Type: "b", Attrs: []string{"k"}},
		To:   constraint.Target{Type: "q", Attrs: []string{}},
	})
	// (q has no attrs: that is an SL004 finding, which suppresses the
	// tier-3 rules — so assert only that SL202 stays quiet.)
	if rep := Run(d, set, nil); hasRule(rep, "SL202") {
		t.Fatalf("SL202 fired with a tier-1-dirty spec")
	}
}

// TestSeverityOrderAndStrings pins the Severity enum's rendering.
func TestSeverityOrderAndStrings(t *testing.T) {
	if !(Info < Warning && Warning < Error) {
		t.Fatal("severity order broken")
	}
	for s, want := range map[Severity]string{Info: "info", Warning: "warning", Error: "error"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

// TestDeterminism: two runs over the same spec yield identical reports.
func TestDeterminism(t *testing.T) {
	d, set := parseSpec(t, `
<!ELEMENT r (b | (q, x))>
<!ELEMENT b EMPTY>
<!ELEMENT q (q)>
<!ELEMENT x EMPTY>
<!ATTLIST b k CDATA #REQUIRED>
<!ATTLIST x k CDATA #REQUIRED>
`, "x.k -> x\nb.k <= x.k\nb.k -> b")
	first := Run(d, set, nil)
	for i := 0; i < 10; i++ {
		if again := Run(d, set, nil); !reflect.DeepEqual(first.Diags, again.Diags) {
			t.Fatalf("run %d differs:\n%v\nvs\n%v", i, first.Diags, again.Diags)
		}
	}
}

// TestNeverPanics: a panicking rule is converted into a Warning
// diagnostic instead of propagating.
func TestNeverPanics(t *testing.T) {
	f := newFacts(NewDTDFacts(dtd.New("r")), nil)
	var got []Diagnostic
	r := &Rule{ID: "SLX", run: func(*facts, func(Diagnostic)) { panic("boom") }}
	runRule(f, r, func(d Diagnostic) { got = append(got, d) })
	if len(got) != 1 || got[0].Severity != Warning || !strings.Contains(got[0].Message, "boom") {
		t.Fatalf("panic not converted: %v", got)
	}
}

// TestNilInputs: Run must tolerate nil DTDs and nil sets.
func TestNilInputs(t *testing.T) {
	rep := Run(nil, nil, nil)
	if !hasRule(rep, "SL001") {
		t.Fatalf("nil DTD should yield SL001, got %v", ruleIDs(rep))
	}
	if rep := Prepass(nil, nil, nil); rep.SoundError() != nil {
		t.Fatalf("prepass must not prove inconsistency of a nil DTD")
	}
}

// TestPrepassSubset: the prepass reports a subset of Run's findings and
// contains only sound rules.
func TestPrepassSubset(t *testing.T) {
	d, set := parseSpec(t, `
<!ELEMENT r (s, s, t?)>
<!ELEMENT s EMPTY>
<!ELEMENT t EMPTY>
<!ATTLIST s k CDATA #REQUIRED>
<!ATTLIST t k CDATA #REQUIRED>
`, "s.k -> s\nt.k -> t\ns.k <= t.k")
	pre := Prepass(d, set, nil)
	full := Run(d, set, nil)
	if pre.SoundError() == nil || full.SoundError() == nil {
		t.Fatal("SL201 spec must produce a sound error in both modes")
	}
	for _, diag := range pre.Diags {
		if !diag.Sound {
			t.Errorf("prepass emitted non-sound diagnostic %v", diag)
		}
		if !hasRule(full, diag.RuleID) {
			t.Errorf("prepass rule %s missing from full run", diag.RuleID)
		}
	}
}

// TestOccursInAndAvoid exercises the fixpoints directly on a spec with
// both dead and live branches.
func TestOccursInAndAvoid(t *testing.T) {
	d, err := dtd.Parse(`
<!ELEMENT r (b | (q, x))>
<!ELEMENT b EMPTY>
<!ELEMENT q (q)>
<!ELEMENT x EMPTY>
`)
	if err != nil {
		t.Fatal(err)
	}
	f := newFacts(NewDTDFacts(d), nil)
	occ := f.Occurrable()
	for name, want := range map[string]bool{"r": true, "b": true, "q": false, "x": false} {
		if occ[name] != want {
			t.Errorf("occurrable[%s] = %v, want %v", name, occ[name], want)
		}
	}
	if !f.MustOccur("b") {
		t.Error("b must occur: the only realizable word of P(r) is \"b\"")
	}
	if f.MustOccur("x") {
		t.Error("x cannot be mandatory; it never even occurs")
	}
}

// TestMinDiff pins the cardinality-difference analysis on the SL201
// fixture.
func TestMinDiff(t *testing.T) {
	d, err := dtd.Parse(`
<!ELEMENT r (s, s, t?)>
<!ELEMENT s EMPTY>
<!ELEMENT t EMPTY>
`)
	if err != nil {
		t.Fatal(err)
	}
	f := newFacts(NewDTDFacts(d), nil)
	diff := f.MinDiff("s", "t")
	if diff["r"] != 1 {
		t.Errorf("minDiff(r) = %d, want 1 (two s, at most one t)", diff["r"])
	}
	if diff["s"] != 1 || diff["t"] != -1 {
		t.Errorf("leaf diffs = %d, %d; want 1, -1", diff["s"], diff["t"])
	}
	// A star absorbs any deficit: with t* the difference is unbounded
	// below.
	d2, err := dtd.Parse(`
<!ELEMENT r (s, s, t*)>
<!ELEMENT s EMPTY>
<!ELEMENT t EMPTY>
`)
	if err != nil {
		t.Fatal(err)
	}
	f2 := newFacts(NewDTDFacts(d2), nil)
	if got := f2.MinDiff("s", "t")["r"]; got != negInf {
		t.Errorf("minDiff(r) with t* = %d, want negInf", got)
	}
	// satAdd saturates instead of overflowing.
	if satAdd(negInf, -5) != negInf || satAdd(negInf+1, -10) != negInf {
		t.Error("satAdd must saturate at negInf")
	}
}

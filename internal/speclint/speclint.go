// Package speclint is a static analyzer for XML specifications: it
// inspects a (DTD, constraint set) pair and reports structured
// diagnostics without ever building an ILP encoding or searching for a
// witness document. Rules come in three tiers:
//
//   - well-formedness (tier 1): the constraint set references element
//     types, attributes and contexts the DTD actually declares, foreign
//     keys are paired with keys, attribute lists are sane;
//   - vacuity (tier 2): dead parts of the spec — non-productive types,
//     types that can never occur in any conforming document, constraints
//     and contexts that are trivially satisfied because their extent is
//     always empty;
//   - sound necessary conditions for inconsistency (tier 3): cheap
//     structural arguments that prove no conforming document can satisfy
//     the constraints. A tier-3 rule firing at severity Error is a proof
//     of inconsistency: consistency.Check is guaranteed to return
//     Inconsistent on the same input.
//
// Run executes the full registry; Prepass executes only the sound
// tier-3 rules (plus SL101) and is cheap enough to run in front of
// every consistency check. Neither ever panics: a panicking rule is
// caught and reported as a diagnostic on the rule itself.
package speclint

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/obs"
)

// Severity grades a diagnostic.
type Severity int

// Severities, ordered so that higher is worse.
const (
	Info Severity = iota
	Warning
	Error
)

// String returns "info", "warning" or "error".
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// MarshalJSON renders the severity as its string form.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Diagnostic is one finding.
type Diagnostic struct {
	// RuleID identifies the rule that fired (e.g. "SL201").
	RuleID string `json:"rule"`
	// Severity is Error, Warning or Info.
	Severity Severity `json:"severity"`
	// Message describes the finding.
	Message string `json:"message"`
	// Subject names what the finding is about: an element type, an
	// "type.attr" pair, or a rendered constraint. May be empty for
	// spec-wide findings.
	Subject string `json:"subject,omitempty"`
	// Fix is a hint on how to repair the spec. May be empty.
	Fix string `json:"fix,omitempty"`
	// Sound marks a tier-3 error whose firing proves the spec
	// inconsistent.
	Sound bool `json:"sound,omitempty"`
}

// MarshalJSON emits the numeric severity alongside its name, so JSON
// consumers can threshold on severity without re-parsing the string
// form.
func (d Diagnostic) MarshalJSON() ([]byte, error) {
	type plain Diagnostic
	return json.Marshal(struct {
		plain
		SeverityLevel int `json:"severity_level"`
	}{plain(d), int(d.Severity)})
}

// String renders the diagnostic in a compact single-line form.
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s %s: %s", d.RuleID, d.Severity, d.Message)
	if d.Fix != "" {
		s += " (fix: " + d.Fix + ")"
	}
	return s
}

// Rule describes one registered check.
type Rule struct {
	// ID is the stable rule identifier ("SLxyz": x is the tier).
	ID string
	// Tier is 1 (well-formedness), 2 (vacuity) or 3 (sound
	// inconsistency conditions).
	Tier int
	// Severity is the severity the rule emits at.
	Severity Severity
	// Sound marks tier-3 rules whose Error findings prove
	// inconsistency.
	Sound bool
	// Doc is a one-line description.
	Doc string

	run func(f *facts, emit func(Diagnostic))
}

// registry lists every rule in execution (and report) order.
var registry = []Rule{
	{ID: "SL001", Tier: 1, Severity: Error, Doc: "DTD is not well-formed (Definition 2.1)", run: ruleDTDInvalid},
	{ID: "SL002", Tier: 1, Severity: Error, Doc: "constraint references an undeclared element type", run: ruleUndeclaredType},
	{ID: "SL003", Tier: 1, Severity: Error, Doc: "constraint uses an attribute outside R(τ)", run: ruleUndeclaredAttr},
	{ID: "SL004", Tier: 1, Severity: Error, Doc: "constraint has an empty attribute list", run: ruleEmptyAttrs},
	{ID: "SL005", Tier: 1, Severity: Error, Doc: "constraint repeats an attribute", run: ruleDuplicateAttr},
	{ID: "SL006", Tier: 1, Severity: Error, Doc: "inclusion attribute lists differ in length", run: ruleArityMismatch},
	{ID: "SL007", Tier: 1, Severity: Error, Doc: "inclusion lacks the key on its right-hand side (not a foreign key)", run: ruleMissingKey},
	{ID: "SL008", Tier: 1, Severity: Error, Doc: "constraint mixes relative and regular addressing, or is non-unary where unarity is required", run: ruleMalformedAddressing},
	{ID: "SL009", Tier: 1, Severity: Warning, Doc: "duplicate constraint in the set", run: ruleDuplicateConstraint},
	{ID: "SL101", Tier: 2, Severity: Error, Sound: true, Doc: "no document conforms to the DTD (root not productive)", run: ruleDTDUnsatisfiable},
	{ID: "SL102", Tier: 2, Severity: Warning, Doc: "element type can never derive a finite subtree (non-productive)", run: ruleNonProductiveType},
	{ID: "SL103", Tier: 2, Severity: Info, Doc: "element type can never occur in any conforming document", run: ruleUnoccurrableType},
	{ID: "SL104", Tier: 2, Severity: Warning, Doc: "constraint is vacuous: its extent is empty in every conforming document", run: ruleVacuousConstraint},
	{ID: "SL105", Tier: 2, Severity: Warning, Doc: "relative constraint's context type never occurs; the constraint never applies", run: ruleVacuousContext},
	{ID: "SL201", Tier: 3, Severity: Error, Sound: true, Doc: "keys + foreign key force count(σ) ≤ count(τ) but the DTD forces count(σ) > count(τ)", run: ruleCardinalityClash},
	{ID: "SL202", Tier: 3, Severity: Error, Sound: true, Doc: "foreign-key source must occur but its target type never occurs", run: ruleOrphanRequiredSource},
}

// Rules returns the registry (rule metadata in execution order).
func Rules() []Rule {
	out := make([]Rule, len(registry))
	copy(out, registry)
	return out
}

// Report is the outcome of a lint run.
type Report struct {
	// Diags lists every finding, grouped by rule in registry order.
	Diags []Diagnostic
}

// Errors returns the error-severity findings.
func (r *Report) Errors() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if d.Severity == Error {
			out = append(out, d)
		}
	}
	return out
}

// SoundError returns the first finding that proves inconsistency, or
// nil.
func (r *Report) SoundError() *Diagnostic {
	for i := range r.Diags {
		if r.Diags[i].Sound && r.Diags[i].Severity == Error {
			return &r.Diags[i]
		}
	}
	return nil
}

// Counts returns the number of findings per severity.
func (r *Report) Counts() (errors, warnings, infos int) {
	for _, d := range r.Diags {
		switch d.Severity {
		case Error:
			errors++
		case Warning:
			warnings++
		case Info:
			infos++
		}
	}
	return
}

// Run executes the full rule registry over the spec and returns every
// finding. It never panics; a rule that panics contributes a Warning
// diagnostic blaming the rule itself. rec may be nil; when set, each
// firing rule bumps the counter "speclint.rule.<id>".
func Run(d *dtd.DTD, set *constraint.Set, rec *obs.Recorder) *Report {
	return run(newFacts(NewDTDFacts(d), set), rec, registry)
}

// Prepass executes only the sound rules (SL101, SL201, SL202) — the
// ones whose Error findings prove inconsistency. It is designed to be
// cheap enough to run in front of every consistency check: on a spec
// with no inclusions and a non-recursive DTD it does almost no work.
func Prepass(d *dtd.DTD, set *constraint.Set, rec *obs.Recorder) *Report {
	return run(newFacts(NewDTDFacts(d), set), rec, soundRegistry)
}

// PrepassValidated is Prepass for callers that have already established
// d.Validate() == nil and set.Validate(d) == nil (consistency.Check
// has, by the time it runs the prepass); it skips re-running the
// tier-1 well-formedness analyses. The behavior is undefined if the
// guarantee does not hold.
func PrepassValidated(d *dtd.DTD, set *constraint.Set, rec *obs.Recorder) *Report {
	f := NewDTDFacts(d)
	f.dtdErrDone = true
	return f.PrepassValidated(set, rec)
}

// PrepassValidated is the package-level PrepassValidated over these
// facts' DTD, which must have passed DTDErr; set must pass
// set.Validate. Every DTD-only analysis the sound rules consult is
// taken from (and left in) f, so a caller prepassing several
// constraint sets over one DTD computes each once.
func (f *DTDFacts) PrepassValidated(set *constraint.Set, rec *obs.Recorder) *Report {
	lf := newFacts(f, set)
	lf.wfDone = true
	return run(lf, rec, soundRegistry)
}

// soundRegistry lists the sound rules in registry order. It is built
// at package initialization, so concurrent first prepasses only read
// it.
var soundRegistry = soundRules(registry)

// soundRules returns the sound rules of rules, in order.
func soundRules(rules []Rule) []Rule {
	var out []Rule
	for _, r := range rules {
		if r.Sound {
			out = append(out, r)
		}
	}
	return out
}

func newFacts(df *DTDFacts, set *constraint.Set) *facts {
	if set == nil {
		set = &constraint.Set{}
	}
	return &facts{DTDFacts: df, set: set}
}

func run(f *facts, rec *obs.Recorder, rules []Rule) *Report {
	sp := rec.Start("speclint.run")
	rep := &Report{}
	// One emit closure for the whole run (cur tracks the executing
	// rule): the prepass is on the hot path of every consistency check,
	// so per-rule closures are worth avoiding.
	var cur *Rule
	emit := func(diag Diagnostic) {
		diag.RuleID = cur.ID
		if cur.Sound && diag.Severity == Error {
			diag.Sound = true
		}
		rep.Diags = append(rep.Diags, diag)
	}
	for i := range rules {
		cur = &rules[i]
		n := len(rep.Diags)
		runRule(f, cur, emit)
		if fired := len(rep.Diags) - n; fired > 0 {
			rec.Add("speclint.rule."+cur.ID, int64(fired))
		}
	}
	if len(rep.Diags) > 0 {
		errs, warns, infos := rep.Counts()
		sp.SetInt("errors", int64(errs))
		sp.SetInt("warnings", int64(warns))
		sp.SetInt("infos", int64(infos))
	}
	sp.End()
	return rep
}

// runRule executes one rule, converting a panic into a Warning
// diagnostic so that Run keeps its never-panic guarantee.
func runRule(f *facts, r *Rule, emit func(Diagnostic)) {
	defer func() {
		if p := recover(); p != nil {
			emit(Diagnostic{
				Severity: Warning,
				Message:  fmt.Sprintf("rule panicked: %v (findings from this rule are incomplete)", p),
				Subject:  r.ID,
			})
		}
	}()
	r.run(f, emit)
}

// sortedTypes returns the DTD's type names in sorted order, for
// deterministic per-type diagnostics.
func sortedTypes(d *dtd.DTD) []string {
	out := append([]string(nil), d.Names...)
	sort.Strings(out)
	return out
}

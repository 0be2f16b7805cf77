package xmlspec

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/bruteforce"
	"repro/internal/certificate"
	"repro/internal/consistency"
	"repro/internal/constraint"
	"repro/internal/digest"
	"repro/internal/docgen"
	"repro/internal/dtd"
	"repro/internal/ilp"
	"repro/internal/implication"
	"repro/internal/introspect"
	"repro/internal/obs"
	"repro/internal/prover"
	"repro/internal/speclint"
	"repro/internal/streamcheck"
	"repro/internal/xmltree"
)

// Verdict is the three-valued outcome of a static check.
type Verdict int

// The verdicts of consistency checks.
const (
	// Unknown means the procedure could not decide within its
	// configured limits, or the dialect is undecidable and neither a
	// witness nor a refutation was found.
	Unknown Verdict = iota
	// Consistent means some document conforms to the DTD and satisfies
	// every constraint.
	Consistent
	// Inconsistent means no such document exists.
	Inconsistent
)

// String delegates to the consistency package's stringer: the two
// enums are value-aligned by construction (see verdict_test.go), so
// one rendering serves both.
func (v Verdict) String() string { return consistency.Verdict(v).String() }

// Spec is a parsed XML specification: a DTD and a constraint set.
type Spec struct {
	dtd *dtd.DTD
	set *constraint.Set
	// obs, when set, receives pipeline spans and solver metrics for
	// every operation on the Spec.
	obs *obs.Recorder
	// digestMu guards digestMemo, the lazily computed canonical digest
	// (empty until the first Digest call; reset by AddConstraint).
	digestMu   sync.Mutex
	digestMemo string
}

// Digest returns the specification's canonical identity: an
// order-insensitive fingerprint of the DTD and the constraint set
// (see internal/digest). Equal specifications — same declarations,
// same root, same constraint set in any order — share a digest, so it
// keys hot-spec tracking, audit-log joins, and (in a coming PR) the
// verdict cache. The digest is computed on first use and cached; it
// is never computed on the check hot path.
func (s *Spec) Digest() string {
	s.digestMu.Lock()
	defer s.digestMu.Unlock()
	if s.digestMemo == "" {
		s.digestMemo = digest.Spec(s.dtd, s.set)
	}
	return s.digestMemo
}

// SetObserver attaches an observability recorder (internal/obs) to the
// specification: subsequent Consistent, ValidateDocument,
// ValidateStream, Implies, and Sample calls record their pipeline
// spans, solver counters, and histograms into it. nil detaches the
// recorder; with no recorder attached the instrumented paths cost one
// nil check and allocate nothing.
func (s *Spec) SetObserver(rec *obs.Recorder) { s.obs = rec }

// Parse parses a DTD (<!ELEMENT ...>/<!ATTLIST ...> declarations; the
// first declared element is the root) and a constraint set (one
// constraint per line in the paper's notation, e.g.
// "country.name -> country", "country(capital.inProvince ⊆
// province.name)", "r._*.student.record.id -> r._*.student.record").
// The constraints are validated against the DTD.
func Parse(dtdSource, constraintSource string) (*Spec, error) {
	d, err := dtd.Parse(dtdSource)
	if err != nil {
		return nil, err
	}
	set, err := constraint.ParseSet(constraintSource)
	if err != nil {
		return nil, err
	}
	if err := set.Validate(d); err != nil {
		return nil, err
	}
	return &Spec{dtd: d, set: set}, nil
}

// MustParse is Parse for known-good literals; it panics on error.
func MustParse(dtdSource, constraintSource string) *Spec {
	s, err := Parse(dtdSource, constraintSource)
	if err != nil {
		panic(fmt.Sprintf("xmlspec.MustParse: %v", err))
	}
	return s
}

// DTD returns the DTD in surface syntax.
func (s *Spec) DTD() string { return s.dtd.String() }

// Constraints returns the constraint set, one per line.
func (s *Spec) Constraints() string { return s.set.String() }

// Class returns the paper's name for the smallest dialect containing
// the constraint set (e.g. "AC_{K,FK}", "AC^{reg}_{K,FK}", "RC_{K,FK}").
func (s *Spec) Class() string { return constraint.Classify(s.set).ClassName() }

// Hierarchical reports whether the specification is in HRC: the DTD is
// non-recursive and no two scopes are related by a foreign key
// (Section 4.2), which is what makes relative constraints decidable.
func (s *Spec) Hierarchical() bool { return consistency.Hierarchical(s.dtd, s.set) }

// ConflictingPairs renders the conflicting scope pairs (empty for
// hierarchical specifications).
func (s *Spec) ConflictingPairs() []string {
	var out []string
	for _, p := range consistency.ConflictingPairs(s.dtd, s.set) {
		out = append(out, fmt.Sprintf("(%s, %s) via %s", p.Outer, p.Inner, p.Via))
	}
	return out
}

// Options tunes the checker; the zero value is a sensible default.
type Options struct {
	// MaxSolverNodes bounds the integer-programming search (0: 2^18).
	MaxSolverNodes int
	// MaxValue caps element counts during the search (0: 2^20).
	MaxValue int64
	// SkipWitness disables example-document construction.
	SkipWitness bool
	// MinimizeWitness shrinks the witness document to the fewest
	// elements (slower; verdicts unchanged).
	MinimizeWitness bool
	// SearchNodes bounds the fallback exhaustive search used on
	// undecidable dialects (0: 6 element nodes).
	SearchNodes int
	// DisableLP turns off simplex relaxation pruning (diagnostics and
	// ablation benchmarks only).
	DisableLP bool
	// SkipLint disables the static-analysis prepass that short-circuits
	// to Inconsistent when a sound speclint rule fires.
	SkipLint bool
	// SkipCertificate disables verdict-provenance construction:
	// definitive verdicts come back without a checkable certificate.
	SkipCertificate bool
	// Explain runs the rule-based saturation prover between the lint
	// prepass and the solver: a rule refutation short-circuits the
	// integer search and ships a step-by-step replayable derivation
	// certificate. Off by default — the hot path pays nothing for it.
	Explain bool
	// Attribution derives per-scope cost rows into Result.Attribution
	// from the check's spans: one row per hierarchical scope subproblem
	// (one "document" row on the non-relative routes) with self time,
	// solver effort, verdict contribution, and constraint families.
	// Without an observer the check records into a private one. An
	// explanation carries no rows and ignores it. Off by default.
	Attribution bool
	// AttributionAllocs additionally records per-row heap-allocation
	// deltas, at the cost of two brief stop-the-world runtime MemStats
	// reads per subproblem — fine for CLIs and batch tools, too heavy
	// for a serving hot path. Implies nothing without Attribution.
	AttributionAllocs bool
	// Progress, when non-nil, receives live introspection snapshots
	// while the check runs: the pipeline phase, the scope position,
	// and sampled branch-and-bound search state (see
	// internal/introspect). Readers may call Snapshot concurrently at
	// any time; the check never blocks on them.
	Progress *ProgressPublisher
	// ProfileLabel, when non-empty, runs the check's pipeline phases
	// under runtime/pprof labels ("digest" = this value, "phase" =
	// lint|prover|ilp, plus "scope" per hierarchical subproblem), so a
	// CPU profile collected while checks run attributes its samples to
	// specs and phases. Set it to the spec digest (Spec.Digest). Empty
	// disables labeling at zero cost to the check.
	ProfileLabel string
}

func (o *Options) internal(rec *obs.Recorder) consistency.Options {
	if o == nil {
		o = &Options{}
	}
	out := consistency.Options{
		ILP: ilp.Options{
			MaxNodes:  o.MaxSolverNodes,
			MaxValue:  o.MaxValue,
			DisableLP: o.DisableLP,
		},
		SkipWitness:     o.SkipWitness,
		MinimizeWitness: o.MinimizeWitness,
		BruteForce:      bruteforce.Options{MaxNodes: o.SearchNodes},
		Obs:             rec,
		SkipLint:        o.SkipLint,
		SkipCertificate: o.SkipCertificate,
		Explain:         o.Explain,
		Progress:        o.Progress,
		ProfileLabel:    o.ProfileLabel,
	}
	if o.Attribution {
		led := introspect.NewLedger()
		if o.AttributionAllocs {
			led.TrackAllocs()
		}
		out.Ledger = led
		// The rows are derived from the check's spans.
		if rec == nil {
			out.Obs = obs.New()
		}
	}
	return out
}

// Stats summarizes the work a check performed.
type Stats struct {
	// SolverNodes counts integer-search nodes, Cuts the connectivity
	// cutting planes, Scopes the hierarchical sub-problems.
	SolverNodes, Cuts, Scopes int
	// LPCalls counts simplex relaxations and Pivots their tableau
	// pivots; Propagations counts interval-propagation rounds and
	// Branches the search's branching decisions.
	LPCalls, Pivots, Propagations, Branches int
	// FastPathLPs counts relaxations the int64 fast-path simplex
	// completed and RatFallbacks those that overflowed onto the exact
	// big.Rat tableau (FastPathLPs + RatFallbacks == LPCalls).
	FastPathLPs, RatFallbacks int
	// LintFindings counts the diagnostics the static-analysis prepass
	// reported (zero when SkipLint is set or the prepass found
	// nothing).
	LintFindings int
	// ProverFacts counts the facts the saturation prover derived (zero
	// unless Options.Explain ran it), and ProverShortCircuit records
	// that a rule refutation decided the check before any solver ran.
	ProverFacts        int
	ProverShortCircuit bool
}

// Result reports the outcome of a consistency check.
type Result struct {
	Verdict Verdict
	// Class is the detected constraint dialect, Method the procedure
	// that decided it.
	Class, Method string
	// Witness is a sample document (serialized XML) conforming to the
	// DTD and satisfying all constraints; only for Consistent verdicts
	// and only when construction succeeded within limits, in which
	// case it was verified with the dynamic checker.
	Witness string
	// Diagnosis explains Unknown verdicts and missing witnesses.
	Diagnosis string
	// Certificate is the verdict's checkable provenance: a witness for
	// Consistent, a refutation for Inconsistent, nil for Unknown or
	// under SkipCertificate. VerifyCertificate re-checks it against the
	// specification without re-running any solver.
	Certificate *Certificate
	// Attribution is the per-scope cost rows, sorted by descending
	// elapsed time — the certificate's sibling report of where the
	// verdict's cost went. Only with Options.Attribution; nil
	// otherwise.
	Attribution []ScopeCost
	// Stats reports solver effort.
	Stats Stats
}

// Certificate is the provenance record attached to definitive
// verdicts (see internal/certificate).
type Certificate = certificate.Certificate

// ScopeCost is one per-scope cost row and FamilyCost one
// per-constraint-family aggregate (see internal/introspect).
type ScopeCost = introspect.ScopeCost

// FamilyCost aggregates ScopeCost rows by constraint family.
type FamilyCost = introspect.FamilyCost

// ProgressPublisher is the live-introspection rendezvous a caller can
// attach through Options.Progress: the running check publishes
// sampled Progress snapshots into it and any number of concurrent
// observers read them with Snapshot, without ever blocking the search
// (see internal/introspect).
type ProgressPublisher = introspect.Publisher

// ProgressSnapshot is one sampled view of a running check.
type ProgressSnapshot = introspect.Progress

// NewProgressPublisher returns a publisher ready to attach to
// Options.Progress.
func NewProgressPublisher() *ProgressPublisher { return introspect.NewPublisher() }

// CostByFamily aggregates attribution rows per constraint family,
// sorted by descending elapsed time.
func CostByFamily(rows []ScopeCost) []FamilyCost { return introspect.ByFamily(rows) }

// Consistent statically checks the specification. opts may be nil.
func (s *Spec) Consistent(opts *Options) (Result, error) {
	sp := s.obs.Start("xmlspec.check")
	defer sp.End()
	res, err := consistency.Check(s.dtd, s.set, opts.internal(s.obs))
	if err != nil {
		return Result{}, err
	}
	return s.convertResult(res), nil
}

// CheckContext is Consistent bounded by a context: the decision
// procedures poll ctx and a deadline or cancellation aborts the check
// with an error for which Aborted reports true — never with a verdict
// computed on a truncated budget. This is what makes the checker safe
// to serve: a request's deadline or disconnect reliably stops the
// (worst-case exponential) search. opts may be nil.
func (s *Spec) CheckContext(ctx context.Context, opts *Options) (Result, error) {
	sp := s.obs.Start("xmlspec.check")
	defer sp.End()
	res, err := consistency.CheckContext(ctx, s.dtd, s.set, opts.internal(s.obs))
	if err != nil {
		return Result{}, err
	}
	return s.convertResult(res), nil
}

// Aborted reports whether an error from CheckContext means the check
// was cut short by its context (deadline or cancellation) rather than
// failing. errors.Is against context.DeadlineExceeded or
// context.Canceled further distinguishes the cause.
func Aborted(err error) bool { return consistency.Aborted(err) }

// convertResult maps the internal result onto the facade's and stamps
// the specification's digest into the certificate, so the provenance
// record names the exact spec it proves something about. The stamp
// only runs when a certificate was built — SkipCertificate checks
// never pay for a digest.
func (s *Spec) convertResult(res consistency.Result) Result {
	out := convertResult(res)
	if out.Certificate != nil {
		out.Certificate.SpecDigest = s.Digest()
	}
	return out
}

func convertResult(res consistency.Result) Result {
	out := Result{
		Verdict:     Verdict(res.Verdict),
		Class:       res.Class,
		Method:      res.Method,
		Diagnosis:   res.Diagnosis,
		Certificate: res.Certificate,
		Attribution: res.Attribution,
		Stats: Stats{
			SolverNodes:        res.Stats.ILPNodes,
			Cuts:               res.Stats.Cuts,
			Scopes:             res.Stats.Scopes,
			LPCalls:            res.Stats.LPCalls,
			Pivots:             res.Stats.Pivots,
			Propagations:       res.Stats.Propagations,
			Branches:           res.Stats.Branches,
			FastPathLPs:        res.Stats.FastPathLPs,
			RatFallbacks:       res.Stats.RatFallbacks,
			LintFindings:       res.Stats.LintFindings,
			ProverFacts:        res.Stats.ProverFacts,
			ProverShortCircuit: res.Stats.ProverShortCircuit,
		},
	}
	out.Witness = res.WitnessXML()
	return out
}

// VerifyCertificate independently re-checks a certificate against the
// specification: witness vectors are re-evaluated against the freshly
// compiled (in)equalities, witness documents re-validated, and lint
// refutations re-fired — with no solver invocation anywhere. A nil
// error means the certificate establishes its verdict on its own. The
// certificate's spec stamp is compared against the memoized Digest.
func (s *Spec) VerifyCertificate(cert *Certificate) error {
	return certificate.VerifyDigested(s.dtd, s.set, cert, s.Digest())
}

// Report is a Result together with the span timeline of the check
// that produced it — the programmatic equivalent of running a CLI
// with -trace-out.
type Report struct {
	Result
	// Spans is the flat pre-order span timeline (slash-joined paths,
	// microsecond offsets) recorded during this check.
	Spans []obs.SpanInfo
}

// CheckWithReport is Consistent plus provenance: it records the check
// into the attached observer (or a private recorder when none is
// attached) and returns the verdict, certificate, stats, and span
// timeline together. With an attached observer the report's spans
// include everything that observer has recorded so far.
func (s *Spec) CheckWithReport(opts *Options) (Report, error) {
	rec := s.obs
	if rec == nil {
		rec = obs.New()
	}
	sp := rec.Start("xmlspec.check")
	res, err := consistency.Check(s.dtd, s.set, opts.internal(rec))
	sp.End()
	if err != nil {
		return Report{}, err
	}
	return Report{Result: s.convertResult(res), Spans: rec.Spans()}, nil
}

// Finding is one static-analysis diagnostic about the specification
// itself (not about a document).
type Finding struct {
	// Rule is the rule identifier (e.g. "SL201"); Severity is "error",
	// "warning" or "info".
	Rule, Severity string
	// Message describes the finding; Subject names the element type,
	// attribute or constraint it is about; Fix hints at a repair.
	Message, Subject, Fix string
	// Sound marks findings that prove the specification inconsistent:
	// Consistent is never returned for a spec with a sound finding.
	Sound bool
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s %s: %s", f.Rule, f.Severity, f.Message)
	if f.Fix != "" {
		s += " (fix: " + f.Fix + ")"
	}
	return s
}

// Lint statically analyzes the specification with the full speclint
// rule registry — well-formedness, vacuity/dead-spec analysis, and
// sound necessary conditions for inconsistency — and returns every
// finding (nil when the spec is clean). Lint never fails: diagnostics
// are data, not errors.
func (s *Spec) Lint() []Finding {
	rep := speclint.Run(s.dtd, s.set, s.obs)
	var out []Finding
	for _, d := range rep.Diags {
		out = append(out, Finding{
			Rule:     d.RuleID,
			Severity: d.Severity.String(),
			Message:  d.Message,
			Subject:  d.Subject,
			Fix:      d.Fix,
			Sound:    d.Sound,
		})
	}
	return out
}

// Violation describes one failure of a document against the
// specification.
type Violation struct {
	// Constraint is empty for DTD conformance failures.
	Constraint string
	Message    string
}

func (v Violation) String() string {
	if v.Constraint == "" {
		return v.Message
	}
	return v.Constraint + ": " + v.Message
}

// ValidateDocument dynamically checks a document (XML text) against
// the specification: conformance to the DTD and satisfaction of every
// constraint. It returns nil when the document is valid.
func (s *Spec) ValidateDocument(document string) ([]Violation, error) {
	sp := s.obs.Start("xmlspec.validate_document")
	defer sp.End()
	tree, err := xmltree.ParseDocumentString(document)
	if err != nil {
		return nil, err
	}
	var out []Violation
	if err := tree.Conforms(s.dtd); err != nil {
		out = append(out, Violation{Message: err.Error()})
		return out, nil
	}
	for _, v := range constraint.Check(tree, s.set) {
		out = append(out, Violation{Constraint: v.Constraint, Message: v.String()})
	}
	return out, nil
}

// ValidateStream validates a document in one streaming pass without
// materializing the tree: memory stays proportional to document depth
// plus the number of distinct constrained values, so arbitrarily large
// documents can be validated. Violations are equivalent to
// ValidateDocument's (the two implementations are differentially
// tested against each other).
func (s *Spec) ValidateStream(r io.Reader) ([]Violation, error) {
	v, err := streamcheck.New(s.dtd, s.set)
	if err != nil {
		return nil, err
	}
	v.SetObs(s.obs)
	found, err := v.Validate(r)
	if err != nil {
		return nil, err
	}
	var out []Violation
	for _, f := range found {
		out = append(out, Violation{Constraint: f.Constraint, Message: f.String()})
	}
	return out, nil
}

// ImplicationVerdict is the three-valued outcome of Implies.
type ImplicationVerdict int

// The implication verdicts.
const (
	// ImplUnknown means the procedure could not decide within limits.
	ImplUnknown ImplicationVerdict = iota
	// Implied means every valid document satisfies the constraint.
	Implied
	// NotImplied means a counterexample document exists.
	NotImplied
)

// String delegates to the implication package's stringer (the enums
// are value-aligned; see verdict_test.go).
func (v ImplicationVerdict) String() string { return implication.Verdict(v).String() }

// ImplicationResult reports the outcome of Implies.
type ImplicationResult struct {
	Verdict ImplicationVerdict
	// Counterexample is a serialized document satisfying the
	// specification but violating the constraint (NotImplied only).
	Counterexample string
	Diagnosis      string
}

// Implies decides whether the specification implies one more
// constraint (Impl(C), Section 3.4): does every document that conforms
// to the DTD and satisfies the constraint set also satisfy it? The
// constraint must be a unary absolute key or inclusion (type-based or
// regular); an inclusion is checked alone — pair it with its key to
// check a full foreign key.
func (s *Spec) Implies(constraintLine string) (ImplicationResult, error) {
	sp := s.obs.Start("xmlspec.implies")
	defer sp.End()
	phi, err := constraint.Parse(constraintLine)
	if err != nil {
		return ImplicationResult{}, err
	}
	res, err := implication.Implies(s.dtd, s.set, phi, implication.Options{})
	if err != nil {
		return ImplicationResult{}, err
	}
	out := ImplicationResult{Verdict: ImplicationVerdict(res.Verdict), Diagnosis: res.Diagnosis}
	if res.Counterexample != nil {
		out.Counterexample = res.Counterexample.XML()
	}
	return out, nil
}

// EquivalenceResult reports the outcome of EquivalentTo.
type EquivalenceResult struct {
	// Verdict: Implied means the two specifications admit exactly the
	// same documents; NotImplied means a separating document exists.
	Verdict ImplicationVerdict
	// Separating is a serialized document admitted by one
	// specification and rejected by the other (NotImplied only), and
	// Direction explains which way.
	Separating, Direction string
	Diagnosis             string
}

// EquivalentTo decides whether two specifications over the same DTD
// admit exactly the same documents, by checking constraint implication
// in both directions. Exact for unary absolute/regular constraints;
// relative and multi-attribute members degrade the verdict to unknown
// unless a separating document is found.
func (s *Spec) EquivalentTo(other *Spec) (EquivalenceResult, error) {
	if s.dtd.String() != other.dtd.String() {
		return EquivalenceResult{}, fmt.Errorf("xmlspec: EquivalentTo requires identical DTDs")
	}
	res, err := implication.EquivalentSets(s.dtd, s.set, other.set, implication.Options{})
	if err != nil {
		return EquivalenceResult{}, err
	}
	out := EquivalenceResult{
		Verdict:   ImplicationVerdict(res.Verdict),
		Direction: res.Direction,
		Diagnosis: res.Diagnosis,
	}
	if res.Separating != nil {
		out.Separating = res.Separating.XML()
	}
	return out, nil
}

// Explanation is the full account of an inconsistency produced by
// Explain: a minimal unsat core (Σ indices, keys first, then
// inclusions), the prover's rule derivation when the sound rule set
// reaches the contradiction, and ranked drop/weaken repair hints.
type Explanation = consistency.Explanation

// RepairHint is one ranked repair candidate in an Explanation.
type RepairHint = consistency.RepairHint

// ConstraintAt renders the Σ member at the given index in the
// prover-canonical order (keys first, then inclusions) — the order
// Explanation cores and derivation steps cite. It returns "" for an
// out-of-range index.
func (s *Spec) ConstraintAt(i int) string { return prover.ConstraintAt(s.set, i) }

// Explain decides the specification with the saturation prover enabled
// and, when the verdict is Inconsistent, shrinks the constraint set to
// a minimal unsat core by deletion-based minimization, attaches the
// prover's step-by-step derivation when the rule set reaches the
// contradiction (VerifyCertificate replays it), and ranks repair
// candidates by how many of the enumerated cores they appear in. For
// Consistent and Unknown specifications the explanation carries the
// verdict and nothing else. opts may be nil.
func (s *Spec) Explain(opts *Options) (Explanation, error) {
	return s.explain(nil, opts)
}

// ExplainContext is Explain bounded by a context: every consistency
// sub-decision of the core minimization polls ctx, and a deadline or
// cancellation aborts the explanation with an error for which Aborted
// reports true. opts may be nil.
func (s *Spec) ExplainContext(ctx context.Context, opts *Options) (Explanation, error) {
	return s.explain(ctx, opts)
}

func (s *Spec) explain(ctx context.Context, opts *Options) (Explanation, error) {
	sp := s.obs.Start("xmlspec.explain")
	defer sp.End()
	// An explanation carries no cost rows, so Attribution attaches
	// neither a ledger nor a private recorder to its checks.
	var o Options
	if opts != nil {
		o = *opts
	}
	o.Attribution = false
	iopts := o.internal(s.obs)
	iopts.Ctx = ctx
	ex, err := consistency.Explain(s.dtd, s.set, iopts)
	if err != nil {
		return Explanation{}, err
	}
	if ex.Certificate != nil {
		ex.Certificate.SpecDigest = s.Digest()
	}
	return ex, nil
}

// ExplainInconsistency diagnoses an inconsistent specification: it
// returns a minimal subset of the constraints that is already
// inconsistent with the DTD (the lines to look at when repairing the
// specification), or a note that the DTD alone is unsatisfiable. It
// errors when the specification is not inconsistent.
func (s *Spec) ExplainInconsistency() ([]string, error) {
	core, err := consistency.MinimalCore(s.dtd, s.set, consistency.Options{Obs: s.obs})
	if err != nil {
		return nil, err
	}
	if core.DTDUnsatisfiable {
		return []string{"the DTD alone admits no finite document"}, nil
	}
	var out []string
	for _, k := range core.Constraints.Keys {
		out = append(out, k.String())
	}
	for _, c := range core.Constraints.Incls {
		out = append(out, c.String())
	}
	return out, nil
}

// SampleOptions tunes Sample.
type SampleOptions struct {
	// MaxNodes softly bounds each document's element count (zero: 30).
	MaxNodes int
	// Seed makes generation reproducible (zero: seed 1).
	Seed int64
}

// Sample generates count random documents that satisfy the
// specification — varied fixture data for systems consuming the
// schema. Every returned document is verified by the dynamic checker;
// Sample errors when no valid document can be found (e.g. on an
// inconsistent specification).
func (s *Spec) Sample(count int, opts *SampleOptions) ([]string, error) {
	if opts == nil {
		opts = &SampleOptions{}
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, 0, count)
	for i := 0; i < count; i++ {
		sp := s.obs.Start("xmlspec.sample")
		tree, err := docgen.Generate(s.dtd, s.set, rng, docgen.Options{MaxNodes: opts.MaxNodes})
		if err != nil {
			sp.End()
			return nil, err
		}
		if sp != nil {
			sp.SetInt("nodes", int64(tree.Size()))
			s.obs.Observe("sample.document_nodes", int64(tree.Size()))
		}
		sp.End()
		out = append(out, tree.XML())
	}
	return out, nil
}

// Normalized returns a copy of the specification with the constraint
// set simplified: duplicate constraints removed, key attribute lists
// canonicalized, and trivially true self-inclusions dropped. The
// normalized specification admits exactly the same documents.
func (s *Spec) Normalized() *Spec {
	return &Spec{dtd: s.dtd, set: s.set.Normalize()}
}

// AddConstraint parses and adds one more constraint, revalidating the
// set — the "specifications are written in stages" workflow of the
// paper's introduction.
func (s *Spec) AddConstraint(line string) error {
	c, err := constraint.Parse(strings.TrimSpace(line))
	if err != nil {
		return err
	}
	next := s.set.Clone()
	switch v := c.(type) {
	case constraint.Key:
		next.AddKey(v)
	case constraint.Inclusion:
		next.AddInclusion(v)
	}
	if err := next.Validate(s.dtd); err != nil {
		return err
	}
	s.set = next
	s.digestMu.Lock()
	s.digestMemo = "" // the identity changed with the constraint set
	s.digestMu.Unlock()
	return nil
}

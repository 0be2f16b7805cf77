// Package consistency implements the paper's decision procedures for
// the XML specification consistency problem SAT(C): given a DTD D and
// a constraint set Σ, decide whether some XML tree conforms to D and
// satisfies Σ.
//
// The dispatcher routes a specification to the strongest applicable
// procedure:
//
//   - SAT(AC_K) — keys only: consistency equals DTD satisfiability
//     (PTIME, Section 3.3).
//   - SAT(AC_{K,FK}) — unary absolute keys and foreign keys: the [14]
//     cardinality encoding, exact (NP).
//   - SAT(AC^{*,1}_{PK,FK}) and the disjoint-keys variant — primary /
//     disjoint multi-attribute keys with unary foreign keys: the
//     prequadratic (PDE) encoding of Theorem 3.1, exact (NEXPTIME).
//   - SAT(AC^reg_{K,FK}) — unary regular-path constraints: the
//     state-tagged cell encoding of Theorem 3.4, exact (NEXPTIME).
//   - SAT(HRC_{K,FK}) — hierarchical relative constraints over
//     non-recursive DTDs: scope decomposition (Theorem 4.3).
//   - everything else (AC^{*,*}, non-hierarchical RC — both proved
//     undecidable) — sound refutation by relaxation plus bounded
//     witness search, with an honest Unknown when neither side lands.
//
// Results are three-valued; Inconsistent and Consistent are exact,
// and Consistent verdicts carry a dynamically verified witness tree
// whenever one could be built within the configured limits.
package consistency

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/bruteforce"
	"repro/internal/cardinality"
	"repro/internal/certificate"
	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/ilp"
	"repro/internal/introspect"
	"repro/internal/obs"
	"repro/internal/prover"
	"repro/internal/speclint"
	"repro/internal/xmltree"
)

// Verdict is the three-valued outcome of a consistency check.
type Verdict int

// The verdicts.
const (
	// Unknown means the procedure could not decide within its limits
	// (or the class is undecidable and neither side was established).
	Unknown Verdict = iota
	// Consistent means some tree conforms to D and satisfies Σ.
	Consistent
	// Inconsistent means no such tree exists.
	Inconsistent
)

func (v Verdict) String() string {
	switch v {
	case Consistent:
		return "consistent"
	case Inconsistent:
		return "inconsistent"
	default:
		return "unknown"
	}
}

// Options configures the checker.
type Options struct {
	// ILP configures the integer solver.
	ILP ilp.Options
	// WitnessMaxNodes bounds witness-tree realization (zero: 2000).
	WitnessMaxNodes int
	// SkipWitness disables witness construction (decision only).
	SkipWitness bool
	// MinimizeWitness shrinks witnesses to the fewest XML elements by
	// iterative re-solving (slower; Consistent verdicts unchanged).
	MinimizeWitness bool
	// BruteForce bounds the fallback searches on undecidable classes.
	BruteForce bruteforce.Options
	// Obs receives pipeline spans and solver counters for the whole
	// check (it is propagated into the ILP and brute-force layers
	// unless those carry their own recorder). nil disables
	// observability at the cost of one nil check per instrumentation
	// point.
	Obs *obs.Recorder
	// SkipLint disables the speclint prepass that runs the sound
	// static rules (SL101/SL201/SL202) before any encoding and
	// short-circuits to Inconsistent when one fires.
	SkipLint bool
	// Explain runs the saturation prover (internal/prover) between the
	// lint prepass and the encoding layer: a refutation short-circuits
	// the ILP entirely and ships a replayable rule-derivation
	// certificate. Off by default so the hot path pays nothing for it.
	Explain bool
	// SkipCertificate disables certificate construction entirely:
	// definitive verdicts come back with a nil Certificate and the
	// decision path does none of the associated work (no named-vector
	// maps, no system digests). Benchmarks isolating raw decision cost
	// set this.
	SkipCertificate bool
	// Ctx, when non-nil, makes the check cancellable: it is threaded
	// into the ILP search and the brute-force enumeration, and a check
	// whose context fires returns an *AbortError instead of a verdict.
	// CheckContext sets it; a nil Ctx costs nothing.
	Ctx context.Context
	// Progress, when non-nil, receives live introspection: the
	// dispatcher marks the pipeline phase and scope position, and the
	// ILP search (which inherits the publisher) samples full search
	// snapshots through it. nil costs one nil check per phase change.
	Progress *introspect.Publisher
	// Ledger, when non-nil, asks for per-subproblem cost rows (time,
	// solver effort, verdict contribution, constraint families): one
	// row per hierarchical scope on the relative route, one "document"
	// row elsewhere. Each solved subproblem records its row on its Obs
	// span, and Check derives Result.Attribution from the spans of its
	// own consistency.check subtree, so without Obs there are no rows.
	Ledger *introspect.Ledger
	// Parallelism is ignored: the Theorem 4.3 scope problems are
	// solved by one sequential recursion.
	//
	// Deprecated: kept only so existing callers compile.
	Parallelism int
	// ProfileLabel, when non-empty, runs the check's phases under
	// runtime/pprof labels — ("digest", ProfileLabel, "phase",
	// lint|prover|ilp), plus ("scope", key) around each hierarchical
	// scope subproblem — so CPU profiles collected while checks run
	// (-cpuprofile, /debug/pprof) attribute their samples to specs and
	// pipeline phases. Callers set it to the spec digest. Empty costs
	// nothing: every wrap site goes through one helper whose func
	// argument does not escape, so the unlabeled path calls it directly
	// with its closure on the stack, and label sets are built only when
	// labeled.
	ProfileLabel string
	// explaining marks the checks of an explanation, which derives no
	// cost rows, so their spans carry no cost attributes.
	explaining bool
}

func (o Options) withDefaults() Options {
	if o.WitnessMaxNodes == 0 {
		o.WitnessMaxNodes = 2000
	}
	if o.Obs != nil {
		if o.ILP.Obs == nil {
			o.ILP.Obs = o.Obs
		}
		if o.BruteForce.Obs == nil {
			o.BruteForce.Obs = o.Obs
		}
	}
	if o.Ctx != nil {
		if o.ILP.Ctx == nil {
			o.ILP.Ctx = o.Ctx
		}
		if o.BruteForce.Ctx == nil {
			o.BruteForce.Ctx = o.Ctx
		}
	}
	if o.Progress != nil && o.ILP.Progress == nil {
		o.ILP.Progress = o.Progress
	}
	return o
}

// AbortError reports a check cut short by its context — a deadline or
// a cancellation, never a verdict. It wraps the context's error, so
// errors.Is(err, context.DeadlineExceeded) and errors.Is(err,
// context.Canceled) distinguish the two causes.
type AbortError struct {
	// Err is the underlying context error.
	Err error
}

func (e *AbortError) Error() string { return "consistency: check aborted: " + e.Err.Error() }

// Unwrap exposes the context error to errors.Is/As.
func (e *AbortError) Unwrap() error { return e.Err }

// Aborted reports whether err means "the check was canceled" rather
// than a specification or verdict problem.
func Aborted(err error) bool {
	var a *AbortError
	return errors.As(err, &a)
}

// Stats reports the work a check did, aggregated over every solver
// invocation the check performed.
type Stats struct {
	// ILPNodes and LPCalls aggregate solver effort.
	ILPNodes, LPCalls int
	// Cuts counts connectivity cutting planes.
	Cuts int
	// Scopes counts hierarchical sub-checks.
	Scopes int
	// Propagations counts interval-propagation fixpoint rounds.
	Propagations int
	// Branches counts branching decisions across all solves.
	Branches int
	// Pivots counts simplex tableau pivots across all LP calls.
	Pivots int
	// MaxDepth is the deepest search level of any solve.
	MaxDepth int
	// Saturations counts saturated interval-arithmetic bounds on the
	// propagation rows the solver visited; rows untouched since their
	// last visit are not revisited, so not counted again.
	Saturations int
	// LintFindings counts the diagnostics the speclint prepass
	// reported (zero when the prepass is skipped or clean).
	LintFindings int
	// ProverFacts counts the facts the saturation prover derived
	// (zero unless Options.Explain ran it).
	ProverFacts int
	// ProverShortCircuit records that the prover refuted the spec and
	// the encoding/ILP layers never ran.
	ProverShortCircuit bool
	// FastPathLPs counts simplex relaxations the int64 fast path
	// completed; RatFallbacks the ones that fell back to the exact
	// big.Rat tableau on a potential overflow.
	FastPathLPs  int
	RatFallbacks int
	// Workers is always 0: no check runs a scope worker pool.
	//
	// Deprecated: kept only so existing callers compile.
	Workers int
}

// addILP merges one solver invocation's effort into the check stats.
func (s *Stats) addILP(st ilp.Stats) {
	s.ILPNodes += st.Nodes
	s.LPCalls += st.LPCalls
	s.Propagations += st.PropPasses
	s.Branches += st.Branches
	s.Pivots += st.Pivots
	if st.MaxDepth > s.MaxDepth {
		s.MaxDepth = st.MaxDepth
	}
	s.Saturations += st.Saturations
	s.FastPathLPs += st.FastPathLPs
	s.RatFallbacks += st.RatFallbacks
}

// merge accumulates another check's stats (hierarchical sub-checks).
func (s *Stats) merge(other Stats) {
	s.ILPNodes += other.ILPNodes
	s.LPCalls += other.LPCalls
	s.Cuts += other.Cuts
	s.Scopes += other.Scopes
	s.Propagations += other.Propagations
	s.Branches += other.Branches
	s.Pivots += other.Pivots
	if other.MaxDepth > s.MaxDepth {
		s.MaxDepth = other.MaxDepth
	}
	s.Saturations += other.Saturations
	s.FastPathLPs += other.FastPathLPs
	s.RatFallbacks += other.RatFallbacks
}

// Result is the outcome of a consistency check.
type Result struct {
	Verdict Verdict
	// Class is the detected constraint dialect.
	Class string
	// Method names the procedure that produced the verdict.
	Method string
	// Witness is a conforming, constraint-satisfying tree (Consistent
	// only, when construction succeeded within limits).
	Witness *xmltree.Tree
	// WitnessVerified reports that Witness passed the dynamic checker.
	WitnessVerified bool
	// Diagnosis explains Unknown verdicts and witness gaps.
	Diagnosis string
	// Certificate is the checkable provenance of a definitive verdict:
	// a witness for Consistent, a refutation for Inconsistent, nil for
	// Unknown (or under SkipCertificate, or when no checkable evidence
	// exists, e.g. inexact scope encodings). It verifies with
	// certificate.Verify without re-running any solver.
	Certificate *certificate.Certificate
	// Attribution is the per-subproblem cost rows, sorted by
	// descending elapsed time — only when Options.Ledger and
	// Options.Obs were attached, nil otherwise.
	Attribution []introspect.ScopeCost
	Stats       Stats
}

// WitnessXML renders the verified witness, or returns "" when there is
// none. A document certificate already holds the witness rendered, and
// that rendering is returned instead of a second one.
func (r *Result) WitnessXML() string {
	if r.Witness == nil || !r.WitnessVerified {
		return ""
	}
	if c := r.Certificate; c != nil && c.Witness != nil && c.Witness.Form == certificate.FormDocument {
		return c.Witness.Document
	}
	return r.Witness.XML()
}

// conclude sets a definitive verdict together with its provenance.
// Every Consistent/Inconsistent verdict must flow through conclude —
// the certattach analyzer in tools/analyzers enforces it — so no
// definitive verdict can ship without its caller deciding, explicitly,
// what the certificate is.
func (r *Result) conclude(v Verdict, cert *certificate.Certificate) {
	r.Verdict = v
	r.Certificate = cert
}

// Check validates and decides a specification.
func Check(d *dtd.DTD, set *constraint.Set, opts Options) (Result, error) {
	return compile(d).check(set, opts)
}

// compiled is a DTD compiled for checking: everything a decision
// derives from D alone — the Ψ_D side of the paper's systems — built
// on first use and kept for every later decision over the same D.
// Check compiles its DTD per call; Explain compiles it once and hands
// the one form to its first decision and to every subset check of the
// minimizer. A form belongs to one call and is never shared between
// goroutines.
type compiled struct {
	d *dtd.DTD
	// lint holds the DTD's Validate result, its recursion and
	// satisfiability, and speclint's DTD-only facts (productive,
	// occurrable and σ-avoiding types, difference folds).
	lint *speclint.DTDFacts
	// enc holds the narrowed DTD and the minimized region automata of
	// the encodings; nil until an encoding needs it.
	enc *cardinality.DTDForm
	// analysis holds the prover's DTD folds; nil until a saturation
	// needs it.
	analysis *prover.Analysis
}

// compile prepares the compiled form of d; it computes nothing up
// front.
func compile(d *dtd.DTD) *compiled {
	return &compiled{d: d, lint: speclint.NewDTDFacts(d)}
}

// encoder returns the encodings' half of the form.
func (c *compiled) encoder() *cardinality.DTDForm {
	if c.enc == nil {
		c.enc = cardinality.NewDTDForm(c.d)
	}
	return c.enc
}

// prover returns the prover's half of the form; the DTD must have
// passed validation.
func (c *compiled) prover() *prover.Analysis {
	if c.analysis == nil {
		c.analysis = prover.AnalyzeValidated(c.d, c.lint.Recursive())
	}
	return c.analysis
}

// check is Check over the compiled DTD.
func (c *compiled) check(set *constraint.Set, opts Options) (Result, error) {
	if err := c.lint.DTDErr(); err != nil {
		return Result{}, err
	}
	if err := set.Validate(c.d); err != nil {
		return Result{}, err
	}
	return c.checkValidated(set, opts)
}

// checkValidated is check for a constraint set that has passed
// set.Validate over the form's valid DTD.
func (c *compiled) checkValidated(set *constraint.Set, opts Options) (Result, error) {
	res, sp := c.dispatch(set, opts)
	// A fired context invalidates the outcome even when a procedure
	// happened to finish: the caller asked for an abort, and a verdict
	// computed on a canceled budget must not be mistaken for a timely
	// one.
	if err := ctxErr(opts.Ctx); err != nil {
		return Result{}, &AbortError{Err: err}
	}
	if opts.Ledger.Enabled() {
		res.Attribution = checkRows(opts.Obs, sp)
	}
	return res, nil
}

// ctxErr is ctx.Err(), except that a deadline already passed reads as
// context.DeadlineExceeded even before the context's timer has run:
// the timer cancels from a goroutine of its own, which a busy process
// may not schedule until a CPU-bound check has long finished. A nil
// ctx never fires.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// CheckContext is Check bounded by a context: per-request deadlines
// and client disconnects abort the decision procedures (the ILP search
// polls ctx.Done() between nodes) and surface as an *AbortError, never
// as a verdict.
func CheckContext(ctx context.Context, d *dtd.DTD, set *constraint.Set, opts Options) (Result, error) {
	opts.Ctx = ctx
	return Check(d, set, opts)
}

// dispatch is the decision core behind Check, over a validated spec;
// it reports its result and its ended consistency.check span without
// the final context gate.
func (c *compiled) dispatch(set *constraint.Set, opts Options) (Result, *obs.Span) {
	opts = opts.withDefaults()
	sp := opts.Obs.Start("consistency.check")
	defer sp.End()
	prof := constraint.Classify(set)
	res := Result{Class: prof.ClassName()}

	if !opts.SkipLint {
		opts.Progress.SetPhase("lint")
		var rep *speclint.Report
		labeled(opts, func() { rep = c.lint.PrepassValidated(set, opts.Obs) }, "phase", "lint")
		res.Stats.LintFindings = len(rep.Diags)
		if diag := rep.SoundError(); diag != nil {
			route(opts.Obs, "lint_short_circuit")
			res.conclude(Inconsistent, lintCert(diag, opts))
			res.Method = fmt.Sprintf("speclint prepass (%s)", diag.RuleID)
			res.Diagnosis = diag.Message
			if sp != nil {
				sp.SetString("class", res.Class)
				sp.SetString("method", res.Method)
				sp.SetString("verdict", res.Verdict.String())
				sp.SetString("early_exit", "speclint "+diag.RuleID)
			}
			return res, sp
		}
	}

	if opts.Explain {
		opts.Progress.SetPhase("prover")
		psp := opts.Obs.Start("prover")
		var out prover.Outcome
		labeled(opts, func() { out = c.prover().Saturate(set) }, "phase", "prover")
		res.Stats.ProverFacts = out.Facts
		if psp != nil {
			psp.SetInt("facts", int64(out.Facts))
			psp.SetString("refuted", strconv.FormatBool(out.Refuted))
		}
		psp.End()
		if out.Refuted {
			route(opts.Obs, "prover_short_circuit")
			res.Stats.ProverShortCircuit = true
			res.conclude(Inconsistent, proverCert(out.Derivation, opts))
			res.Method = fmt.Sprintf("saturation prover (%d-step rule derivation)", len(out.Derivation))
			res.Diagnosis = "the sound rule set derives a document-scope contradiction"
			if sp != nil {
				sp.SetString("class", res.Class)
				sp.SetString("method", res.Method)
				sp.SetString("verdict", res.Verdict.String())
				sp.SetString("early_exit", "prover refutation")
			}
			return res, sp
		}
	}

	// Everything past the prepasses is solver work, labeled as one "ilp"
	// phase; the relative route refines it with a per-scope label.
	labeled(opts, func() { decideRoute(c, set, prof, opts, &res) }, "phase", "ilp")
	if sp != nil {
		sp.SetString("class", res.Class)
		sp.SetString("method", res.Method)
		sp.SetString("verdict", res.Verdict.String())
		if res.Diagnosis != "" {
			sp.SetString("diagnosis", res.Diagnosis)
		}
		res.Stats.record(opts.Obs)
	}
	return res, sp
}

// decideRoute runs the routed decision procedure — the ILP-bearing
// stage of the pipeline, after the lint and prover prepasses have
// declined to short-circuit.
func decideRoute(c *compiled, set *constraint.Set, prof constraint.Profile, opts Options, res *Result) {
	d := c.d
	switch {
	case prof.Relative:
		route(opts.Obs, "relative")
		opts.Progress.SetPhase("relative")
		checkRelative(c, set, opts, res)
	case len(set.Incls) == 0 && !prof.Regular:
		// SAT(AC_K): keys alone never conflict; only the DTD matters.
		route(opts.Obs, "keys-only")
		opts.Progress.SetPhase("keys-only")
		kp := opts.Obs.Start("route.keys_only")
		res.Method = "keys-only (PTIME, Section 3.3)"
		mark := markAllocs(opts)
		if c.lint.Satisfiable() {
			recordCost(kp, opts, mark, "document", d.Root, ilp.Sat, ilp.Stats{}, 0, set)
			res.conclude(Consistent, dtdSatCert(opts))
			if !opts.SkipWitness {
				wsp := opts.Obs.Start("witness")
				attachKeysOnlyWitness(d, set, opts, res)
				wsp.End()
			}
		} else {
			recordCost(kp, opts, mark, "document", d.Root, ilp.Unsat, ilp.Stats{}, 0, set)
			res.conclude(Inconsistent, dtdUnsatCert(opts))
			kp.SetString("early_exit", "DTD unsatisfiable")
		}
		kp.End()
	case prof.Regular:
		route(opts.Obs, "regular")
		opts.Progress.SetPhase("regular")
		checkRegular(c, set, opts, res)
	default:
		route(opts.Obs, "absolute")
		opts.Progress.SetPhase("absolute")
		checkAbsolute(c, set, prof, opts, res)
	}
}

// labeled runs f under the runtime/pprof labels ("digest",
// opts.ProfileLabel, kv...) when the check is labeled, and calls it
// directly otherwise. f does not escape, so neither the caller's
// closure nor its captures reach the heap: the unlabeled path
// allocates nothing for profiling support. The labels stack onto the
// check's own context when one is attached.
func labeled(opts Options, f func(), kv ...string) {
	if opts.ProfileLabel == "" {
		f()
		return
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	pprof.Do(ctx, pprof.Labels(append([]string{"digest", opts.ProfileLabel}, kv...)...),
		func(context.Context) { f() })
}

// route marks which decision procedure fired, both as a counter (for
// metrics diffing) and for the span tree. The nil check precedes the
// concatenation so a disabled recorder costs no allocation.
func route(rec *obs.Recorder, name string) {
	if !rec.Enabled() {
		return
	}
	rec.Add("consistency.route."+name, 1)
}

// record publishes the aggregated stats as obs counters.
func (s Stats) record(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	rec.Add("consistency.cuts", int64(s.Cuts))
	rec.Add("consistency.scopes", int64(s.Scopes))
}

// checkAbsolute decides type-based absolute constraint sets.
func checkAbsolute(c *compiled, set *constraint.Set, prof constraint.Profile, opts Options, res *Result) {
	d := c.d
	sp := opts.Obs.Start("route.absolute")
	defer sp.End()
	mark := markAllocs(opts)
	esp := opts.Obs.Start("encode.absolute")
	enc, err := c.encoder().EncodeAbsolute(set)
	esp.End()
	if err != nil {
		res.Verdict = Unknown
		res.Diagnosis = err.Error()
		sp.SetString("early_exit", "encoding refused: "+err.Error())
		return
	}
	if enc.Exact {
		res.Method = "cardinality encoding (Lemma 1 / Theorem 3.1)"
	} else {
		res.Method = "cardinality relaxation (refutation-sound) + bounded search"
		sp.SetString("exactness", "refutation-sound relaxation")
	}
	ilpRes, cuts := decideFlow(enc.Flow, opts)
	recordCost(sp, opts, mark, "document", d.Root, ilpRes.Verdict, ilpRes.Stats, cuts, set)
	res.Stats.addILP(ilpRes.Stats)
	res.Stats.Cuts += cuts
	switch ilpRes.Verdict {
	case ilp.Unsat:
		res.conclude(Inconsistent, infeasibleCert(enc.Flow.Sys, certificate.EncodingAbsolute, opts))
	case ilp.Unknown:
		res.Verdict = Unknown
		res.Diagnosis = "integer search exhausted its budget"
		sp.SetString("early_exit", "solver budget exhausted")
	case ilp.Sat:
		if enc.Exact {
			res.conclude(Consistent, vectorCert(certificate.EncodingAbsolute, enc.Flow.Sys, ilpRes.Values, opts))
			if !opts.SkipWitness {
				wsp := opts.Obs.Start("witness")
				w, err := enc.Witness(ilpRes.Values, opts.WitnessMaxNodes)
				res.attachConstructed(w, err, "witness construction skipped: ", enc.D, set)
				wsp.End()
			}
			return
		}
		// Inexact class (AC^{*,*} or overlapping multi-attribute
		// keys): the solution may not correspond to a tree. Try the
		// witness; then bounded search; else Unknown.
		if !opts.SkipWitness {
			wsp := opts.Obs.Start("witness")
			if w, err := enc.Witness(ilpRes.Values, opts.WitnessMaxNodes); err == nil && res.adoptWitness(w, d, set) {
				res.conclude(Consistent, documentCert(w, opts))
				wsp.End()
				return
			}
			wsp.End()
		}
		bf := bruteforce.Decide(d, set, opts.BruteForce)
		if bf.Sat() {
			res.Witness = bf.Witness
			res.WitnessVerified = true
			res.conclude(Consistent, documentCert(bf.Witness, opts))
			return
		}
		res.Verdict = Unknown
		res.Diagnosis = fmt.Sprintf(
			"class %s is undecidable in general: the relaxation is satisfiable but no witness was found within the search bounds", res.Class)
	}
}

// checkRegular decides unary regular-path constraint sets.
func checkRegular(c *compiled, set *constraint.Set, opts Options, res *Result) {
	d := c.d
	sp := opts.Obs.Start("route.regular")
	defer sp.End()
	mark := markAllocs(opts)
	esp := opts.Obs.Start("encode.regular")
	enc, err := c.encoder().EncodeRegular(set)
	esp.End()
	if err != nil {
		res.Verdict = Unknown
		res.Diagnosis = err.Error()
		sp.SetString("early_exit", "encoding refused: "+err.Error())
		return
	}
	if sp != nil {
		sp.SetInt("regions", int64(len(enc.Regions)))
		sp.SetInt("cells", int64(enc.NumCells()))
	}
	res.Method = "state-tagged cell encoding (Theorem 3.4)"
	ilpRes, cuts := decideFlow(enc.Flow, opts)
	recordCost(sp, opts, mark, "document", d.Root, ilpRes.Verdict, ilpRes.Stats, cuts, set)
	res.Stats.addILP(ilpRes.Stats)
	res.Stats.Cuts += cuts
	switch ilpRes.Verdict {
	case ilp.Unsat:
		res.conclude(Inconsistent, infeasibleCert(enc.Flow.Sys, certificate.EncodingRegular, opts))
	case ilp.Unknown:
		res.Verdict = Unknown
		res.Diagnosis = "integer search exhausted its budget"
		sp.SetString("early_exit", "solver budget exhausted")
	case ilp.Sat:
		res.conclude(Consistent, vectorCert(certificate.EncodingRegular, enc.Flow.Sys, ilpRes.Values, opts))
		if opts.SkipWitness {
			return
		}
		wsp := opts.Obs.Start("witness")
		defer wsp.End()
		// Witness has checked Σ on the form's region automata.
		w, err := enc.Witness(ilpRes.Values, opts.WitnessMaxNodes)
		res.attachConstructed(w, err, "witness construction failed: ", d, nil)
	}
}

// decideFlow dispatches to the plain or minimizing decide loop.
func decideFlow(f *cardinality.Flow, opts Options) (ilp.Result, int) {
	if opts.MinimizeWitness && !opts.SkipWitness {
		return cardinality.DecideFlowMinimal(f, opts.ILP)
	}
	return cardinality.DecideFlow(f, opts.ILP)
}

// Certificate construction helpers. Each one respects
// Options.SkipCertificate by returning nil before doing any work, so
// the skip path stays free of the associated allocations.

func lintCert(diag *speclint.Diagnostic, opts Options) *certificate.Certificate {
	if opts.SkipCertificate {
		return nil
	}
	return certificate.FromLint(diag.RuleID, diag.Message)
}

func proverCert(derivation []prover.Step, opts Options) *certificate.Certificate {
	if opts.SkipCertificate {
		return nil
	}
	return certificate.FromProver(derivation, "saturation derives the document-scope contradiction")
}

func dtdSatCert(opts Options) *certificate.Certificate {
	if opts.SkipCertificate {
		return nil
	}
	return certificate.FromDTDSatisfiable()
}

func dtdUnsatCert(opts Options) *certificate.Certificate {
	if opts.SkipCertificate {
		return nil
	}
	return certificate.FromDTDUnsat()
}

func vectorCert(enc certificate.Encoding, sys *ilp.System, vals []int64, opts Options) *certificate.Certificate {
	if opts.SkipCertificate || vals == nil {
		return nil
	}
	return certificate.FromVector(enc, sys.NamedValues(vals))
}

func documentCert(w *xmltree.Tree, opts Options) *certificate.Certificate {
	if opts.SkipCertificate || w == nil {
		return nil
	}
	return certificate.FromDocument(w.XML())
}

// infeasibleCert fingerprints the refuted system at its base mark:
// the decide loop has appended connectivity cuts (and a minimization
// bound) to the solved system since the encoder marked it, and the
// base digest ignores them, so it matches a verifier's fresh
// compilation without compiling the spec again.
func infeasibleCert(sys *ilp.System, encName certificate.Encoding, opts Options) *certificate.Certificate {
	if opts.SkipCertificate {
		return nil
	}
	return certificate.FromInfeasible(encName, sys.BaseDigest(), "the "+string(encName)+" encoding admits no solution")
}

// adoptWitness attaches w when it passes the dynamic checker — it
// conforms to d and satisfies set — and reports whether it did. A nil
// set means the witness's builder has already checked it against Σ,
// which is then not checked again.
func (r *Result) adoptWitness(w *xmltree.Tree, d *dtd.DTD, set *constraint.Set) bool {
	if w.Conforms(d) != nil || set != nil && !constraint.Satisfies(w, set) {
		return false
	}
	r.Witness = w
	r.WitnessVerified = true
	return true
}

// attachConstructed attaches a witness built from a solver solution,
// or records in the diagnosis why none was: its construction failed
// (errPrefix says how that is reported) or it failed dynamic
// verification. set is nil when the construction checked Σ itself.
func (r *Result) attachConstructed(w *xmltree.Tree, err error, errPrefix string, d *dtd.DTD, set *constraint.Set) {
	if err != nil {
		r.Diagnosis = errPrefix + err.Error()
	} else if !r.adoptWitness(w, d, set) {
		r.Diagnosis = "constructed witness failed dynamic verification"
	}
}

// attachKeysOnlyWitness generates any conforming tree and gives every
// attribute a distinct value, which satisfies every key.
func attachKeysOnlyWitness(d *dtd.DTD, set *constraint.Set, opts Options, res *Result) {
	tree, err := xmltree.Generate(d, deterministicRand(), xmltree.GenerateOptions{MaxNodes: opts.WitnessMaxNodes})
	if err != nil {
		return
	}
	serial := 0
	tree.Walk(func(n *xmltree.Node) {
		for _, l := range d.Attrs(n.Label) {
			n.SetAttr(l, "k"+strconv.Itoa(serial))
			serial++
		}
	})
	res.adoptWitness(tree, d, set)
}

package consistency

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/bruteforce"
	"repro/internal/cardinality"
	"repro/internal/certificate"
	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/ilp"
	"repro/internal/scope"
	"repro/internal/xmltree"
)

// The scope-decomposition machinery lives in internal/scope so the
// certificate verifier can re-derive the same scope problems without
// importing the checker; these aliases keep the package's public
// surface stable.

// ConflictingPair is a pair of restricted types whose scopes are
// related by a foreign key (Section 4.2), the obstruction to the
// hierarchical decomposition.
type ConflictingPair = scope.ConflictingPair

// RestrictedTypes returns the restricted types of (D, Σ): the root
// plus every context type (Section 4.2).
func RestrictedTypes(d *dtd.DTD, set *constraint.Set) map[string]bool {
	return scope.RestrictedTypes(d, set)
}

// ConflictingPairs returns all conflicting pairs of the specification.
func ConflictingPairs(d *dtd.DTD, set *constraint.Set) []ConflictingPair {
	return scope.ConflictingPairs(d, set)
}

// Hierarchical reports whether (D, Σ) ∈ HRC: the DTD is non-recursive
// and no conflicting pair exists.
func Hierarchical(d *dtd.DTD, set *constraint.Set) bool {
	return scope.Hierarchical(d, set)
}

// DLocality returns the largest Depth(D_τ) over the root and every
// context type (the d of d-HRC, Theorem 4.4). The DTD must be
// non-recursive.
func DLocality(d *dtd.DTD, set *constraint.Set) int {
	return scope.DLocality(d, set)
}

// checkRelative decides relative constraint sets: hierarchical
// specifications over non-recursive DTDs get the exact scope
// decomposition of Theorem 4.3; everything else (the undecidable
// general case, Theorem 4.1) gets a bounded witness search and an
// honest Unknown.
func checkRelative(d *dtd.DTD, set *constraint.Set, opts Options, res *Result) {
	sp := opts.Obs.Start("route.relative")
	defer sp.End()
	if d.IsRecursive() || len(ConflictingPairs(d, set)) > 0 {
		res.Method = "bounded search (SAT(RC) is undecidable, Theorem 4.1)"
		sp.SetString("reason", "recursive DTD or conflicting scope pairs")
		bf := bruteforce.Decide(d, set, opts.BruteForce)
		if bf.Sat() {
			res.Witness = bf.Witness
			res.WitnessVerified = true
			res.conclude(Consistent, documentCert(bf.Witness, opts))
			return
		}
		res.Verdict = Unknown
		if bf.Exhausted {
			res.Diagnosis = "no witness within the search bounds; the class is undecidable, so no refutation is attempted"
		} else {
			res.Diagnosis = "bounded search inconclusive (budget exhausted)"
		}
		sp.SetString("early_exit", res.Diagnosis)
		return
	}
	res.Method = "hierarchical scope decomposition (Theorem 4.3)"
	h := &hierChecker{d: d, set: set, opts: opts, contexts: scope.ContextTypes(d, set), memo: map[string]hierScope{}}
	var root hierScope
	if workers := resolveParallelism(opts.Parallelism); workers >= 2 {
		// The fan-out builds its own checker and hands the decided memo
		// back, rather than borrowing h: passing h into the pool would
		// make this stack-allocated checker escape and cost the
		// sequential hot path a heap allocation it never needed.
		var memo map[string]hierScope
		root, memo, h.stats = runParallelScopes(d, set, opts, h.contexts, workers)
		h.memo = memo
		res.Stats.Workers = workers
	} else {
		root = h.scope(map[string]bool{d.Root: true}, d.Root)
	}
	res.Stats.Scopes = len(h.memo)
	res.Stats.merge(h.stats)
	sp.SetInt("scopes", int64(len(h.memo)))
	switch {
	case root.verdict == ilp.Sat:
		res.conclude(Consistent, h.scopeCertificate())
		if !opts.SkipWitness {
			wsp := opts.Obs.Start("witness")
			h.attachWitness(res)
			wsp.End()
			// Inexact scope encodings yield no vector certificate; a
			// dynamically verified composed witness still certifies.
			if res.Certificate == nil {
				res.Certificate = documentCert(res.Witness, opts)
			}
		}
	case root.verdict == ilp.Unsat:
		res.conclude(Inconsistent, scopeRefutationCert(d, root.digest, opts))
	default:
		res.Verdict = Unknown
		res.Diagnosis = "a scope sub-problem exhausted the solver budget"
		sp.SetString("early_exit", res.Diagnosis)
	}
}

// hierScope is the memoized outcome of one (chain, τ) scope problem.
type hierScope struct {
	verdict ilp.Verdict
	// enc and vals allow witness reconstruction for satisfiable
	// scopes.
	enc  *cardinality.AbsoluteEncoding
	vals []int64
	// exits lists the exit types and whether each was forced absent.
	exits  []string
	banned map[string]bool
	chain  map[string]bool
	// digest fingerprints the scope's base system (before forced-zero
	// constants and connectivity cuts), for refutation certificates.
	digest string
}

type hierChecker struct {
	d        *dtd.DTD
	set      *constraint.Set
	opts     Options
	contexts map[string]bool
	memo     map[string]hierScope
	stats    Stats
}

// scope decides the consistency of the sub-documents rooted at τ nodes
// reached along a chain of restricted types.
func (h *hierChecker) scope(chain map[string]bool, tau string) hierScope {
	key := scope.ChainKey(chain, tau)
	if s, ok := h.memo[key]; ok {
		return s
	}
	sp := h.opts.Obs.Start("scope")
	sp.SetString("type", tau)
	defer sp.End()
	// Mark in-progress defensively (non-recursive DTDs cannot loop).
	h.memo[key] = hierScope{verdict: ilp.Unknown}

	sd, exits := scope.DTD(h.d, h.contexts, tau)
	// Recurse into exits first: inconsistent exits must not occur.
	banned := map[string]bool{}
	var undecided []string
	for _, e := range exits {
		sub := map[string]bool{e: true}
		for c := range chain {
			sub[c] = true
		}
		switch h.scope(sub, e).verdict {
		case ilp.Unsat:
			banned[e] = true
		case ilp.Unknown:
			// The common case allocates nothing here: the slice stays
			// nil unless some exit actually came back undecided.
			undecided = append(undecided, e)
		case ilp.Sat:
			// Consistent exits stay allowed.
		}
	}

	// The solve runs under a per-scope pprof label when the check is
	// labeled, so a CPU profile of a hierarchical check attributes
	// samples to individual scope subproblems. The full label set is
	// restated because the exit recursion above has already reset this
	// goroutine's labels on its way out.
	var out hierScope
	labeled(h.opts, func() { out = h.solveScope(chain, tau, key, sd, exits, banned, undecided) },
		"phase", "ilp", "scope", key)
	return out
}

// solveScope decides one (chain, τ) scope problem on the sequential
// path and memoizes the outcome. The exit recursion has already run;
// banned lists the exits proved inconsistent and undecided the exits
// that came back Unknown.
func (h *hierChecker) solveScope(chain map[string]bool, tau, key string, sd *dtd.DTD, exits []string, banned map[string]bool, undecided []string) hierScope {
	out := solveScopeProblem(h, h.opts, &h.stats, len(h.memo), chain, tau, key, sd, exits, banned, undecided)
	h.memo[key] = out
	return out
}

// solveScopeProblem encodes and decides one (chain, τ) scope problem
// and records its ledger row. It touches no shared checker state — ILP
// effort accumulates into st, and the exit recursion's outcome arrives
// as data (banned and undecided) — so the sequential recursion and the
// parallel fan-out run the exact same decision logic and produce
// identical hierScope outcomes.
//
// The probe starts after the exit recursion, so a parent scope's
// row covers its own encode+solve only — children account for
// themselves and the ledger's total stays the real wall time. The
// live scope position is published here too: the exits recursed into
// earlier moved it, so re-mark this scope before its solve runs.
func solveScopeProblem(h *hierChecker, opts Options, st *Stats, scopeIndex int, chain map[string]bool, tau, key string, sd *dtd.DTD, exits []string, banned map[string]bool, undecided []string) hierScope {
	opts.Progress.SetScope(scopeIndex, key)
	probe := beginProbe(opts.Ledger)
	local, forceZero := scope.LocalSet(h.d, sd, h.set, chain, tau)
	enc, err := cardinality.EncodeAbsolute(sd, local)
	if err != nil {
		probe.record(key, tau, ilp.Unknown, ilp.Stats{}, 0, local)
		return hierScope{verdict: ilp.Unknown}
	}
	var digest string
	if !opts.SkipCertificate {
		// Fingerprint the base system before the forced-zero constants
		// and connectivity cuts mutate it: the certificate verifier
		// compares against a fresh compilation of exactly this system.
		digest = enc.Flow.Sys.Digest()
	}
	for e := range banned {
		forceZero = append(forceZero, e)
	}
	for _, t := range forceZero {
		if fn := enc.Flow.Lookup(t, 0); fn >= 0 {
			enc.Flow.Sys.AddConst(enc.Flow.Vars[fn], 0)
		}
	}
	ilpRes, cuts := decideFlow(enc.Flow, opts)
	st.addILP(ilpRes.Stats)
	st.Cuts += cuts
	scopeStats, scopeCuts := ilpRes.Stats, cuts
	out := hierScope{
		verdict: ilpRes.Verdict,
		enc:     enc,
		vals:    ilpRes.Values,
		exits:   exits,
		banned:  banned,
		chain:   chain,
		digest:  digest,
	}
	// Unsat is exact (only provably inconsistent exits were banned).
	// A Sat that places an exit whose own problem is Unknown is
	// unproven: retry with those exits banned as well, and downgrade
	// to Unknown if the retry fails.
	if out.verdict == ilp.Sat && scopeUsesUndecidedExit(out, undecided) {
		for _, e := range undecided {
			if fn := enc.Flow.Lookup(e, 0); fn >= 0 {
				enc.Flow.Sys.AddConst(enc.Flow.Vars[fn], 0)
			}
		}
		retry, cuts2 := cardinality.DecideFlow(enc.Flow, opts.ILP)
		st.addILP(retry.Stats)
		st.Cuts += cuts2
		scopeStats.Merge(retry.Stats)
		scopeCuts += cuts2
		if retry.Verdict == ilp.Sat {
			out.vals = retry.Values
		} else {
			out.verdict = ilp.Unknown
			out.vals = nil
		}
	}
	probe.record(key, tau, out.verdict, scopeStats, scopeCuts, local)
	return out
}

// scopeUsesUndecidedExit reports whether the satisfying assignment
// places any exit whose own scope problem came back Unknown.
func scopeUsesUndecidedExit(s hierScope, undecided []string) bool {
	for _, e := range undecided {
		if fn := s.enc.Flow.Lookup(e, 0); fn >= 0 && s.vals != nil && s.vals[s.enc.Flow.Vars[fn]] > 0 {
			return true
		}
	}
	return false
}

// scopeCertificate packages every satisfiable memoized scope solution
// into a scope-vector witness certificate (the evidence behind a
// Theorem 4.3 Consistent verdict). Only exact scope encodings can
// certify; if any satisfiable scope's encoding is inexact the
// certificate is omitted rather than overclaimed.
func (h *hierChecker) scopeCertificate() *certificate.Certificate {
	if h.opts.SkipCertificate {
		return nil
	}
	var scopes []certificate.ScopeWitness
	for key, s := range h.memo {
		if s.verdict != ilp.Sat || s.vals == nil || s.enc == nil {
			continue
		}
		if !s.enc.Exact {
			return nil
		}
		scopes = append(scopes, certificate.ScopeWitness{
			Key:    key,
			Type:   keyTau(key),
			Chain:  chainNames(s.chain),
			Vector: s.enc.Flow.Sys.NamedValues(s.vals),
		})
	}
	sort.Slice(scopes, func(i, j int) bool { return scopes[i].Key < scopes[j].Key })
	return certificate.FromScopeVectors(scopes)
}

// scopeRefutationCert pins the infeasible root scope problem.
func scopeRefutationCert(d *dtd.DTD, digest string, opts Options) *certificate.Certificate {
	if opts.SkipCertificate || digest == "" {
		return nil
	}
	return certificate.FromScopeRefutation(
		scope.ChainKey(map[string]bool{d.Root: true}, d.Root), digest)
}

func chainNames(chain map[string]bool) []string {
	names := make([]string, 0, len(chain))
	for c := range chain {
		names = append(names, c)
	}
	sort.Strings(names)
	return names
}

// keyTau extracts the τ component of a ChainKey.
func keyTau(key string) string {
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == '|' {
			return key[i+1:]
		}
	}
	return key
}

// attachWitness composes the per-scope witnesses into one document
// (the construction of Lemma 14): each scope instance is realized from
// its solution, its values are prefixed with a unique instance id
// (freshness across scopes), and exit nodes receive the recursively
// built sub-documents as children.
func (h *hierChecker) attachWitness(res *Result) {
	budget := h.opts.WitnessMaxNodes
	instance := 0
	var build func(chain map[string]bool, tau string) (*xmltree.Node, bool)
	build = func(chain map[string]bool, tau string) (*xmltree.Node, bool) {
		s := h.memo[scope.ChainKey(chain, tau)]
		if s.verdict != ilp.Sat || s.vals == nil {
			return nil, false
		}
		tree, err := s.enc.Witness(s.vals, budget)
		if err != nil {
			return nil, false
		}
		budget -= tree.Size()
		if budget < 0 {
			return nil, false
		}
		instance++
		prefix := fmt.Sprintf("s%d:", instance)
		ok := true
		tree.Walk(func(n *xmltree.Node) {
			for l, v := range n.Attrs {
				n.SetAttr(l, prefix+v)
			}
		})
		// Splice sub-documents under the exit nodes. Collect them
		// before splicing: Walk must not descend into freshly added
		// subtrees (their exits belong to deeper scopes already
		// handled by the recursive build).
		var exitNodes []*xmltree.Node
		tree.Walk(func(n *xmltree.Node) {
			if h.contexts[n.Label] && n != tree.Root {
				exitNodes = append(exitNodes, n)
			}
		})
		for _, n := range exitNodes {
			sub := map[string]bool{n.Label: true}
			for c := range chain {
				sub[c] = true
			}
			child, okc := build(sub, n.Label)
			if !okc {
				ok = false
				break
			}
			// The sub-scope root stands for this very node: adopt its
			// children.
			for _, kid := range child.Children {
				n.Append(kid)
			}
		}
		if !ok {
			return nil, false
		}
		tree.Root.Label = tau
		return tree.Root, true
	}
	rootNode, ok := build(map[string]bool{h.d.Root: true}, h.d.Root)
	if !ok {
		res.Diagnosis = "hierarchical witness construction exceeded its budget"
		return
	}
	w := &xmltree.Tree{Root: rootNode}
	if !res.adoptWitness(w, h.d, h.set) {
		res.Diagnosis = "composed hierarchical witness failed dynamic verification"
	}
}

// deterministicRand returns a fixed-seed source for reproducible
// witness generation.
func deterministicRand() *rand.Rand { return rand.New(rand.NewSource(1)) }

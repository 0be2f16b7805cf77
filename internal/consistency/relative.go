package consistency

import (
	"maps"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/bruteforce"
	"repro/internal/cardinality"
	"repro/internal/certificate"
	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/ilp"
	"repro/internal/obs"
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
func checkRelative(c *compiled, set *constraint.Set, opts Options, res *Result) {
	d := c.d
	sp := opts.Obs.Start("route.relative")
	defer sp.End()
	if c.lint.Recursive() || len(ConflictingPairs(d, set)) > 0 {
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
	root := h.scope(map[string]bool{d.Root: true}, d.Root)
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
		res.conclude(Inconsistent, scopeRefutationCert(d, root, opts))
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
	labeled(h.opts, func() { out = h.solveScope(sp, chain, tau, key, sd, exits, banned, undecided) },
		"phase", "ilp", "scope", key)
	h.memo[key] = out
	return out
}

// solveScope encodes and decides one (chain, τ) scope problem and
// records its cost row on the scope's span sp. The exit recursion has
// already run; banned lists the exits proved inconsistent and
// undecided the exits that came back Unknown.
//
// The live scope position is published here: the exits recursed into
// earlier moved it, so re-mark this scope before its solve runs.
func (h *hierChecker) solveScope(sp *obs.Span, chain map[string]bool, tau, key string, sd *dtd.DTD, exits []string, banned map[string]bool, undecided []string) hierScope {
	h.opts.Progress.SetScope(len(h.memo), key)
	mark := markAllocs(h.opts)
	local, forceZero := scope.LocalSet(h.d, sd, h.set, chain, tau)
	enc, err := cardinality.EncodeAbsolute(sd, local)
	if err != nil {
		recordCost(sp, h.opts, mark, key, tau, ilp.Unknown, ilp.Stats{}, 0, local)
		return hierScope{verdict: ilp.Unknown}
	}
	for e := range banned {
		forceZero = append(forceZero, e)
	}
	for _, t := range forceZero {
		if fn := enc.Flow.Lookup(t, 0); fn >= 0 {
			enc.Flow.Sys.AddConst(enc.Flow.Vars[fn], 0)
		}
	}
	ilpRes, cuts := decideFlow(enc.Flow, h.opts)
	h.stats.addILP(ilpRes.Stats)
	h.stats.Cuts += cuts
	scopeStats, scopeCuts := ilpRes.Stats, cuts
	out := hierScope{
		verdict: ilpRes.Verdict,
		enc:     enc,
		vals:    ilpRes.Values,
		exits:   exits,
		banned:  banned,
		chain:   chain,
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
		retry, cuts2 := cardinality.DecideFlow(enc.Flow, h.opts.ILP)
		h.stats.addILP(retry.Stats)
		h.stats.Cuts += cuts2
		scopeStats.Merge(retry.Stats)
		scopeCuts += cuts2
		if retry.Verdict == ilp.Sat {
			out.vals = retry.Values
		} else {
			out.verdict = ilp.Unknown
			out.vals = nil
		}
	}
	recordCost(sp, h.opts, mark, key, tau, out.verdict, scopeStats, scopeCuts, local)
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

// scopeRefutationCert pins the infeasible root scope problem by the
// digest of its base system: the encoding as compiled, before the
// forced-zero constants and connectivity cuts appended to it, which is
// what the certificate verifier's fresh compilation produces. Only
// the refuted root scope is ever digested.
func scopeRefutationCert(d *dtd.DTD, root hierScope, opts Options) *certificate.Certificate {
	if opts.SkipCertificate || root.enc == nil {
		return nil
	}
	return certificate.FromScopeRefutation(
		scope.ChainKey(map[string]bool{d.Root: true}, d.Root), root.enc.Flow.Sys.BaseDigest())
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
// (the construction of Lemma 14): each scope instance is a copy of its
// scope's witness, its values prefixed with a unique instance id
// (freshness across scopes), and exit nodes receive the recursively
// built sub-documents as children. Each scope's witness is realized
// once, however many instances the document holds of it.
//
// The composed document's node count is charged against
// WitnessMaxNodes, and the document is built only when it fits. An
// exit leaf of a scope witness and the root of the sub-scope witness
// below it are one node of the document, so they are charged once.
func (h *hierChecker) attachWitness(res *Result) {
	b := &witnessBuilder{memo: h.memo, contexts: h.contexts, budget: h.opts.WitnessMaxNodes, scopes: map[string]*scopeWitness{}}
	root := b.scope(map[string]bool{h.d.Root: true}, h.d.Root)
	if root == nil || root.charged > b.budget {
		res.Diagnosis = "hierarchical witness construction exceeded its budget"
		return
	}
	doc := &xmltree.Node{Label: h.d.Root}
	b.instantiate(root, doc)
	if !res.adoptWitness(&xmltree.Tree{Root: doc}, h.d, h.set) {
		res.Diagnosis = "composed hierarchical witness failed dynamic verification"
	}
}

// scopeWitness is one satisfiable scope's witness, realized once from
// its solution.
type scopeWitness struct {
	tree *xmltree.Tree
	// exits maps the label of every exit node of tree to the witness
	// of the scope below it.
	exits map[string]*scopeWitness
	// charged is the node count of one composed instance, the
	// instances below its exits included, capped at WitnessMaxNodes + 1.
	charged int
}

// witnessBuilder composes one hierarchical witness from the memoized
// scope solutions, within the WitnessMaxNodes budget.
type witnessBuilder struct {
	memo     map[string]hierScope
	contexts map[string]bool
	budget   int
	scopes   map[string]*scopeWitness
	// instances numbers the scope instances in document order.
	instances int
}

// scope returns the witness of the scope of τ nodes reached along the
// chain, realizing it and the witnesses below its exits on first use,
// or nil when the scope or a scope below it has no witness within the
// budget.
func (b *witnessBuilder) scope(chain map[string]bool, tau string) *scopeWitness {
	key := scope.ChainKey(chain, tau)
	if w, ok := b.scopes[key]; ok {
		return w
	}
	b.scopes[key] = nil
	s := b.memo[key]
	if s.verdict != ilp.Sat || s.vals == nil {
		return nil
	}
	tree, err := s.enc.Witness(s.vals, b.budget)
	if err != nil {
		return nil
	}
	w := &scopeWitness{tree: tree, exits: map[string]*scopeWitness{}, charged: tree.Size()}
	ok := true
	tree.Walk(func(n *xmltree.Node) {
		if n == tree.Root || !b.contexts[n.Label] {
			return
		}
		sub, seen := w.exits[n.Label]
		if !seen {
			below := maps.Clone(chain)
			below[n.Label] = true
			sub = b.scope(below, n.Label)
			w.exits[n.Label] = sub
		}
		if sub == nil {
			ok = false
			return
		}
		w.charged = min(w.charged+sub.charged-1, b.budget+1) // the exit is sub's root
	})
	if !ok {
		return nil
	}
	b.scopes[key] = w
	return w
}

// instantiate copies the next instance of w under into, which stands
// for the instance's scope root and takes its children and attributes.
// Only the document root gains attributes so: scope.DTD declares none
// on the root of a scope below an exit, whose node keeps those the
// scope above gave it. Every value is prefixed with the instance's
// number.
func (b *witnessBuilder) instantiate(w *scopeWitness, into *xmltree.Node) {
	b.instances++
	prefix := "s" + strconv.Itoa(b.instances) + ":"
	root := w.tree.Root
	for l, v := range root.Attrs {
		into.SetAttr(l, prefix+v)
	}
	into.Children = make([]*xmltree.Node, 0, len(root.Children))
	for _, k := range root.Children {
		into.Append(b.clone(w, k, prefix))
	}
}

// clone copies the node n of w's witness and the subtree below it,
// prefixing every value; an exit node takes the next instance of the
// scope below it.
func (b *witnessBuilder) clone(w *scopeWitness, n *xmltree.Node, prefix string) *xmltree.Node {
	if n.IsText {
		return xmltree.NewText(n.Text)
	}
	c := &xmltree.Node{Label: n.Label}
	if len(n.Attrs) > 0 {
		c.Attrs = make(map[string]string, len(n.Attrs))
		for l, v := range n.Attrs {
			c.Attrs[l] = prefix + v
		}
	}
	if sub, ok := w.exits[n.Label]; ok {
		b.instantiate(sub, c)
		return c
	}
	c.Children = make([]*xmltree.Node, 0, len(n.Children))
	for _, k := range n.Children {
		c.Append(b.clone(w, k, prefix))
	}
	return c
}

// deterministicRand returns a fixed-seed source for reproducible
// witness generation.
func deterministicRand() *rand.Rand { return rand.New(rand.NewSource(1)) }

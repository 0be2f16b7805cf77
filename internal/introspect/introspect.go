// Package introspect is the solver's deep-introspection layer: a
// lock-free live progress publisher sampled by the branch-and-bound
// search, and per-scope cost rows that attribute a check's time,
// allocations, and solver effort to the individual scope subproblems
// and constraint families that consumed them. Each solved subproblem
// records its cost once, on its own obs span (Record), and Rows
// derives the rows from a span list; a Ledger is a check's request for
// rows, not a collector.
//
// A nil *Publisher is the canonical detached observer: every method
// no-ops, so the hot paths pay exactly one nil check (and zero
// allocations) per instrumentation point when nobody is watching. The
// publisher is lock-free for readers and writers alike — the solver
// stores whole Progress snapshots through an atomic pointer, and any
// number of concurrent observers (the daemon's /debug/inflight
// handler, a status page refresh) load the latest one without ever
// blocking the search.
package introspect

import (
	"sync/atomic"
	"time"
)

// Progress is one sampled snapshot of a running check: where the
// search is (phase, scope), how much work it has done (nodes, depth,
// branches, simplex effort), and the incumbent document-size bounds at
// the sampled node. Snapshots are immutable once published; readers
// get a consistent view by construction.
type Progress struct {
	// Phase names the pipeline stage the check was in when sampled:
	// "lint", "prover", or the routed procedure ("relative",
	// "keys-only", "regular", "absolute").
	Phase string `json:"phase"`
	// ScopeIndex counts the hierarchical scope subproblems entered so
	// far (0 before the first); ScopeKey is the chain key of the scope
	// being solved ("" outside the relative route).
	ScopeIndex int    `json:"scope_index"`
	ScopeKey   string `json:"scope_key,omitempty"`
	// Nodes, Depth, MaxDepth, Branches describe the branch-and-bound
	// search at the sample: nodes explored so far, the depth of the
	// sampled node, the deepest level reached, and branching decisions
	// taken.
	Nodes    int `json:"nodes"`
	Depth    int `json:"depth"`
	MaxDepth int `json:"max_depth"`
	Branches int `json:"branches"`
	// LPCalls and Pivots measure simplex effort so far.
	LPCalls int `json:"lp_calls"`
	Pivots  int `json:"pivots"`
	// Restarts counts solver (re)starts on this publisher: scope
	// subproblems, cutting-plane rounds, and minimization passes each
	// re-enter the search, so a value above 1 means the check is a
	// multi-solve pipeline.
	Restarts int `json:"restarts"`
	// BoundLo and BoundHi are the incumbent bounds on the total
	// document size (sum of all variable bounds) at the sampled node;
	// BoundHi is -1 while some variable is still unbounded.
	BoundLo int64 `json:"bound_lo"`
	BoundHi int64 `json:"bound_hi"`
	// ElapsedUS is microseconds from the publisher's creation to this
	// sample.
	ElapsedUS int64 `json:"elapsed_us"`
}

// Publisher is the writer/reader rendezvous for Progress snapshots.
// The solver calls Publish at a sampled cadence; observers call
// Snapshot whenever they like. All methods are safe for concurrent
// use and none ever blocks.
type Publisher struct {
	start time.Time
	// cur is the latest full snapshot.
	cur atomic.Pointer[Progress]
	// loc is the latest phase/scope position, stored separately so the
	// pipeline can move the "where" marker cheaply between solves
	// without fabricating a full snapshot.
	loc      atomic.Pointer[location]
	restarts atomic.Int64
}

type location struct {
	phase      string
	scopeIndex int
	scopeKey   string
}

// NewPublisher returns an attached publisher whose elapsed clock
// starts now.
func NewPublisher() *Publisher {
	return &Publisher{start: time.Now()}
}

// SetPhase marks the pipeline stage the check is entering. The scope
// position is preserved.
func (p *Publisher) SetPhase(phase string) {
	if p == nil {
		return
	}
	next := location{phase: phase}
	if prev := p.loc.Load(); prev != nil {
		next.scopeIndex = prev.scopeIndex
		next.scopeKey = prev.scopeKey
	}
	p.loc.Store(&next)
}

// SetScope marks the scope subproblem the check is entering: index is
// 1-based among the scopes seen so far, key its chain key. The phase
// is preserved.
func (p *Publisher) SetScope(index int, key string) {
	if p == nil {
		return
	}
	next := location{scopeIndex: index, scopeKey: key}
	if prev := p.loc.Load(); prev != nil {
		next.phase = prev.phase
	}
	p.loc.Store(&next)
}

// Restart counts one solver (re)entry. The ILP search calls it once
// per Solve, so observers can tell a single long search from a
// pipeline of many short ones.
func (p *Publisher) Restart() {
	if p == nil {
		return
	}
	p.restarts.Add(1)
}

// Publish stores a new snapshot. The publisher stamps the current
// phase/scope location, the restart count, and the elapsed time; the
// caller fills in the search-shaped fields. The stored snapshot is
// never mutated afterwards, so Snapshot readers need no locking.
func (p *Publisher) Publish(pr Progress) {
	if p == nil {
		return
	}
	if loc := p.loc.Load(); loc != nil {
		pr.Phase = loc.phase
		pr.ScopeIndex = loc.scopeIndex
		pr.ScopeKey = loc.scopeKey
	}
	pr.Restarts = int(p.restarts.Load())
	pr.ElapsedUS = time.Since(p.start).Microseconds()
	p.cur.Store(&pr)
}

// Snapshot returns the latest published snapshot. Before the first
// Publish it synthesizes one from the phase/scope location alone (all
// search fields zero), so an observer attached early still sees where
// the check is; ok is false only on a nil publisher.
func (p *Publisher) Snapshot() (Progress, bool) {
	if p == nil {
		return Progress{}, false
	}
	if cur := p.cur.Load(); cur != nil {
		return *cur, true
	}
	var pr Progress
	if loc := p.loc.Load(); loc != nil {
		pr.Phase = loc.phase
		pr.ScopeIndex = loc.scopeIndex
		pr.ScopeKey = loc.scopeKey
	}
	pr.Restarts = int(p.restarts.Load())
	pr.ElapsedUS = time.Since(p.start).Microseconds()
	return pr, true
}

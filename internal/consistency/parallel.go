package consistency

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/ilp"
	"repro/internal/obs"
	"repro/internal/scope"
)

// Parallel scope fan-out. The hierarchical decomposition of Theorem
// 4.3 is a DAG of independent (chain, τ) subproblems: a scope depends
// only on the verdicts of its exit scopes, and sibling exits share
// nothing. The fan-out exploits exactly that structure — every scope
// becomes a task future keyed by its ChainKey, a parent launches one
// goroutine per exit and waits for all of them, and the actual
// encode+solve runs under a semaphore that bounds concurrent solver
// work to the configured pool size. Waiting for children never holds a
// solve slot, so arbitrarily deep chains cannot deadlock the pool.
//
// Determinism: each task runs the same solveScopeProblem the
// sequential recursion runs, with the same banned/undecided exit
// inputs (the parent observes all child verdicts before solving), so
// the per-scope verdicts, certificates, and witness vectors are
// identical to the sequential path by construction — only wall time
// and the ordering of ledger rows and observability spans can differ.
// Aggregate stats are sums and therefore order-independent; recorder
// shards are absorbed in sorted key order so even the span layout is
// reproducible across runs.
//
// Cancellation: the pool context derives from Options.Ctx, and the
// first event that decides the check — the root task completing, or an
// external abort — cancels it. In-flight ILP searches notice via the
// context polling already inside ilp.Solve; queued tasks give up
// before acquiring a solve slot.

// resolveParallelism maps Options.Parallelism onto a worker count:
// negative means one worker per available CPU, 0 and 1 mean
// sequential.
func resolveParallelism(p int) int {
	if p < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// scopeTask is the future for one (chain, τ) scope problem: done is
// closed when out is final.
type scopeTask struct {
	done chan struct{}
	out  hierScope
}

// taskShard pairs a completed task's recorder shard with its key so
// absorption can run in deterministic order.
type taskShard struct {
	key string
	rec *obs.Recorder
}

// parScopes coordinates the fan-out for one check.
type parScopes struct {
	h      *hierChecker
	ctx    context.Context
	cancel context.CancelFunc
	// sem bounds concurrent solves to the pool size.
	sem chan struct{}
	// started numbers scopes as their solves begin, feeding the live
	// progress position.
	started atomic.Int64

	mu     sync.Mutex
	tasks  map[string]*scopeTask
	stats  Stats
	shards []taskShard
}

// runParallelScopes decides the hierarchical decomposition rooted at
// the DTD root with a pool of workers and returns the root outcome
// plus the decided memo and aggregated stats, which the caller installs
// into its own checker so certificate assembly, witness composition,
// and reporting run the unchanged sequential code. It deliberately
// builds a private hierChecker instead of borrowing the caller's: a
// shared pointer would force the sequential path's checker onto the
// heap.
func runParallelScopes(d *dtd.DTD, set *constraint.Set, opts Options, contexts map[string]bool, workers int) (hierScope, map[string]hierScope, Stats) {
	h := &hierChecker{d: d, set: set, opts: opts, contexts: contexts, memo: make(map[string]hierScope)}
	ctx := context.Background()
	if opts.Ctx != nil {
		ctx = opts.Ctx
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	p := &parScopes{
		h:      h,
		ctx:    ctx,
		cancel: cancel,
		sem:    make(chan struct{}, workers),
		tasks:  make(map[string]*scopeTask),
	}
	root := p.scope(map[string]bool{d.Root: true}, d.Root)
	// Root completion means every task completed: each task is a
	// transitive dependency of the root and parents wait for all
	// children. The fold below therefore reads only final outcomes.
	p.mu.Lock()
	defer p.mu.Unlock()
	for key, t := range p.tasks {
		h.memo[key] = t.out
	}
	h.stats.merge(p.stats)
	sort.Slice(p.shards, func(i, j int) bool { return p.shards[i].key < p.shards[j].key })
	for _, s := range p.shards {
		opts.Obs.Absorb(s.rec)
	}
	return root, h.memo, h.stats
}

// scope returns the decided outcome for (chain, τ), claiming the task
// if nobody has yet or waiting on the existing future. The DAG
// structure (non-recursive DTDs) guarantees the wait cannot cycle.
func (p *parScopes) scope(chain map[string]bool, tau string) hierScope {
	key := scope.ChainKey(chain, tau)
	p.mu.Lock()
	if t, ok := p.tasks[key]; ok {
		p.mu.Unlock()
		<-t.done
		return t.out
	}
	t := &scopeTask{done: make(chan struct{})}
	p.tasks[key] = t
	p.mu.Unlock()
	p.run(t, chain, tau, key)
	return t.out
}

// run executes one claimed task: fan the exit subproblems out, wait
// for their verdicts, then solve this scope under a pool slot.
func (p *parScopes) run(t *scopeTask, chain map[string]bool, tau, key string) {
	defer close(t.done)
	h := p.h
	sd, exits := scope.DTD(h.d, h.contexts, tau)
	banned := map[string]bool{}
	var undecided []string
	if len(exits) > 0 {
		verdicts := make([]ilp.Verdict, len(exits))
		var wg sync.WaitGroup
		for i, e := range exits {
			sub := map[string]bool{e: true}
			for c := range chain {
				sub[c] = true
			}
			wg.Add(1)
			go func(i int, sub map[string]bool, e string) {
				defer wg.Done()
				verdicts[i] = p.scope(sub, e).verdict
			}(i, sub, e)
		}
		wg.Wait()
		for i, e := range exits {
			switch verdicts[i] {
			case ilp.Unsat:
				banned[e] = true
			case ilp.Unknown:
				undecided = append(undecided, e)
			case ilp.Sat:
				// Consistent exits stay allowed.
			}
		}
	}

	// Acquire a solve slot; a canceled check stops queued tasks here
	// (the Unknown outcome is discarded by Check's final context gate).
	select {
	case p.sem <- struct{}{}:
	case <-p.ctx.Done():
		t.out = hierScope{verdict: ilp.Unknown}
		return
	}
	defer func() { <-p.sem }()

	// Task-local options: the pool context (for first-win
	// cancellation) and a private recorder shard, because Recorder is
	// single-writer. Shards are absorbed into the parent recorder in
	// deterministic order after the run. Publisher and Ledger are
	// concurrency-safe and stay shared.
	opts := h.opts
	opts.Ctx = p.ctx
	opts.ILP.Ctx = p.ctx
	var shard *obs.Recorder
	if h.opts.Obs != nil {
		shard = obs.New()
		opts.Obs = shard
		opts.ILP.Obs = shard
	}
	idx := int(p.started.Add(1))
	opts.Progress.WorkerStart()
	defer opts.Progress.WorkerDone()

	solve := func() {
		sp := opts.Obs.Start("scope")
		sp.SetString("type", tau)
		var st Stats
		t.out = solveScopeProblem(h, opts, &st, idx, chain, tau, key, sd, exits, banned, undecided)
		sp.End()
		p.mu.Lock()
		p.stats.merge(st)
		if shard != nil {
			p.shards = append(p.shards, taskShard{key: key, rec: shard})
		}
		p.mu.Unlock()
	}
	// The full label set is restated: worker goroutines inherit the
	// check-wide ("digest", "phase") labels from their spawning
	// goroutine, but restating them keeps per-scope attribution correct
	// regardless of who claimed the task.
	labeled(opts, solve, "phase", "ilp", "scope", key)
}

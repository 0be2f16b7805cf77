package prover

import (
	"math"

	"repro/internal/contentmodel"
	"repro/internal/dtd"
	"repro/internal/pathre"
)

// Analysis holds the DTD-only folds the saturation engine consults —
// count bounds, the occurrence and parent tables, the pairwise
// difference folds, reachability, and region automata — computed on
// first use and shared by every saturation run over the same DTD. A
// caller saturating many constraint sets over one DTD (the unsat-core
// minimizer re-saturates a subset per candidate) builds one Analysis
// and pays for each fold once.
//
// Element types are numbered in d.Names order, and every type-level
// table is a flat slice indexed by those ids (DESIGN.md §4, item 7,
// describes the layout).
//
// An Analysis is not safe for concurrent use: its memos fill in as
// runs consult them.
type Analysis struct {
	d         *dtd.DTD
	recursive bool
	validated bool             // d.Validate() is known to be nil
	ids       map[string]int32 // type name → id (index in d.Names)
	root      int32

	// nodes holds every content model over type ids, type x's rooted
	// at nodes[start[x]] (see cnode); nil until first use.
	nodes []cnode
	start []int32
	// counts[τ] is τ's count-bounds fold, nil until first use.
	counts []*countFold
	// bounds[row][τ] memoizes the count bounds of τ at a scope row:
	// row 0 is the whole document, row σ+1 the content of a σ node.
	// Rows are allocated on first use.
	bounds [][]knownBounds
	// parents[parentStart[τ]:parentStart[τ+1]] lists τ's referencing
	// parent types in id order, each with its occurrence interval: the
	// occurrence table of occ-div/occ-sum, which keeps only its
	// non-empty cells. parentStart is nil until first use.
	parentStart []int32
	parents     []occEdge
	// diff memoizes minDiff(σ, τ) as a vector indexed by type id, keyed
	// σ·n+τ; gaps memoizes the gap fold per (row, σ, τ), packed 21 bits
	// each.
	diff map[int32][]int
	gaps map[uint64]int
	// paid[σ·n+τ] is the run that last charged the work budget for the
	// (σ, τ) difference fold; runs numbers the saturation runs.
	paid []uint32
	runs uint32
	// reach[p] is reachableAvoiding(d, p) as a set indexed by type id,
	// nil until first use.
	reach [][]bool
	// dfas and forced are keyed by a region's node language: its
	// rendered path and its type.
	dfas     map[[2]string]*pathre.DFA
	forced   map[[2]string]bool
	fragment int8 // 0 unknown, 1 the DTD is in the fragment, -1 not
	// spare is the last run's engine, whose buffers the next run
	// reuses.
	spare *engine
}

// knownBounds is one memoized count-bounds cell.
type knownBounds struct {
	Bounds
	known bool
}

// occEdge is one cell of the occurrence table: the parent type σ and
// the interval of occurrences of the child type per word of σ's model.
type occEdge struct {
	sigma int32
	occRange
}

// Analyze prepares the DTD-only analysis of d. It computes nothing up
// front but the type numbering and the DTD's recursion; each fold is
// built when a saturation first needs it.
func Analyze(d *dtd.DTD) *Analysis {
	return analyze(d, d.IsRecursive(), false)
}

// AnalyzeValidated is Analyze for callers that have established
// d.Validate() == nil and know whether d is recursive, so the analysis
// repeats neither. The behavior is undefined if either does not hold.
func AnalyzeValidated(d *dtd.DTD, recursive bool) *Analysis {
	return analyze(d, recursive, true)
}

func analyze(d *dtd.DTD, recursive, validated bool) *Analysis {
	ids := make(map[string]int32, len(d.Names))
	for i, name := range d.Names {
		ids[name] = int32(i)
	}
	root, ok := ids[d.Root]
	if !ok {
		root = -1
	}
	return &Analysis{
		d:         d,
		recursive: recursive,
		validated: validated,
		ids:       ids,
		root:      root,
		diff:      map[int32][]int{},
		gaps:      map[uint64]int{},
		dfas:      map[[2]string]*pathre.DFA{},
		forced:    map[[2]string]bool{},
	}
}

// typeID returns the id of a declared element type.
func (a *Analysis) typeID(name string) (int32, bool) {
	id, ok := a.ids[name]
	return id, ok
}

// countBounds returns the memoized count bounds of τ at a scope row
// (0 for the document, σ+1 for the content of a σ node).
func (a *Analysis) countBounds(row int, tau int32) Bounds {
	if a.bounds == nil {
		a.bounds = make([][]knownBounds, len(a.d.Names)+1)
	}
	cells := a.bounds[row]
	if cells == nil {
		cells = make([]knownBounds, len(a.d.Names))
		a.bounds[row] = cells
	}
	if c := &cells[tau]; !c.known {
		fold := a.countFold(tau)
		if row == 0 {
			c.Bounds = fold.nodeBounds(a.root)
		} else {
			c.Bounds = fold.word(a.model(int32(row - 1)))
		}
		c.known = true
	}
	return cells[tau].Bounds
}

// occTables returns the occurrence table of the occ-div/occ-sum rules:
// every type's referencing parents in id order, with their occurrence
// intervals (see Analysis.parents).
func (a *Analysis) occTables() ([]int32, []occEdge) {
	if a.parentStart == nil {
		n := len(a.d.Names)
		// rows[rowStart[σ]:rowStart[σ+1]] are σ's cells, in type order.
		var rows []occCell
		rowStart := make([]int32, n+1)
		start := make([]int32, n+1)
		for sigma := range n {
			rows = a.occFold(rows, a.model(int32(sigma)))
			rowStart[sigma+1] = int32(len(rows))
		}
		for _, c := range rows {
			start[c.tau+1]++
		}
		for tau := 0; tau < n; tau++ {
			start[tau+1] += start[tau]
		}
		edges := make([]occEdge, start[n])
		fill := append([]int32(nil), start[:n]...)
		for sigma := range n {
			for _, c := range rows[rowStart[sigma]:rowStart[sigma+1]] {
				edges[fill[c.tau]] = occEdge{sigma: int32(sigma), occRange: c.occRange}
				fill[c.tau]++
			}
		}
		a.parentStart, a.parents = start, edges
	}
	return a.parentStart, a.parents
}

// gap returns the memoized minimum of count(σ) − count(τ) over the
// trees (row 0) or the content forests of a row−1 node, or negInf.
func (a *Analysis) gap(row int, sigma, tau int32) int {
	key := uint64(row)<<42 | uint64(sigma)<<21 | uint64(tau)
	if g, ok := a.gaps[key]; ok {
		return g
	}
	pair := sigma*int32(len(a.d.Names)) + tau
	md, ok := a.diff[pair]
	if !ok {
		md = a.minDiffDense(sigma, tau)
		a.diff[pair] = md
	}
	var g int
	if row == 0 {
		g = md[a.root]
	} else {
		g = a.wordDiff(a.model(int32(row-1)), func(x int32) int { return md[x] })
	}
	a.gaps[key] = g
	return g
}

// payGap reports whether run has not yet paid for the (σ, τ)
// difference fold, and records that it now has.
func (a *Analysis) payGap(run uint32, sigma, tau int32) bool {
	n := int32(len(a.d.Names))
	if a.paid == nil {
		a.paid = make([]uint32, n*n)
	}
	if a.paid[sigma*n+tau] == run {
		return false
	}
	a.paid[sigma*n+tau] = run
	return true
}

// newRun numbers a fresh saturation run for payGap.
func (a *Analysis) newRun() uint32 {
	a.runs++
	if a.runs == 0 { // wrapped: forget every stamp
		clear(a.paid)
		a.runs = 1
	}
	return a.runs
}

// reachableAvoiding returns the set of types reachable from the root
// in the type-reference graph without passing through p (the root
// itself is included unless it is p), indexed by type id and memoized.
// A type outside this set occurs in a conforming document only below
// a p node: the soundness basis of the zero-dom rule.
func (a *Analysis) reachableAvoiding(p int32) []bool {
	if a.reach == nil {
		a.reach = make([][]bool, len(a.d.Names))
	}
	if a.reach[p] == nil {
		set := make([]bool, len(a.d.Names))
		if a.root != p && a.root >= 0 {
			nodes := a.models()
			set[a.root] = true
			queue := []int32{a.root}
			for len(queue) > 0 {
				x := queue[0]
				queue = queue[1:]
				from := a.start[x]
				for _, nd := range nodes[from:nodes[from].end] {
					if y := nd.ref; nd.kind == contentmodel.Name && y >= 0 && y != p && !set[y] {
						set[y] = true
						queue = append(queue, y)
					}
				}
			}
		}
		a.reach[p] = set
	}
	return a.reach[p]
}

// nodeDFA returns the memoized DFA of region r's node language β·τ
// over the DTD's element types, where beta is r's path β.
func (a *Analysis) nodeDFA(r Region, beta *pathre.Expr) *pathre.DFA {
	key := [2]string{r.Path, r.Type}
	dfa, ok := a.dfas[key]
	if !ok {
		dfa = pathre.CompileDFA(pathre.Concat(beta, pathre.Symbol(r.Type)), a.d.Names)
		a.dfas[key] = dfa
	}
	return dfa
}

// forcedNonEmpty returns the memoized forcedNonEmpty(d, dfa) of region
// r, whose node-language DFA is dfa.
func (a *Analysis) forcedNonEmpty(r Region, dfa *pathre.DFA) bool {
	key := [2]string{r.Path, r.Type}
	v, ok := a.forced[key]
	if !ok {
		v = forcedNonEmpty(a.d, dfa)
		a.forced[key] = v
	}
	return v
}

// inFragment reports the DTD half of InFragment: d is valid and
// non-recursive, and its content models are simple (simpleModels).
func (a *Analysis) inFragment() bool {
	if a.fragment == 0 {
		a.fragment = -1
		if !a.recursive && (a.validated || a.d.Validate() == nil) && a.simpleModels() {
			a.fragment = 1
		}
	}
	return a.fragment > 0
}

// simpleModels reports whether every content model is a sequence of τ
// and τ* factors (no choice, and a single type under every star), every
// type is referenced from one model only, and no type is starred twice.
func (a *Analysis) simpleModels() bool {
	n := len(a.d.Names)
	nodes := a.models()
	owner := make([]int32, n)
	starred := make([]bool, n)
	for i := range owner {
		owner[i] = -1
	}
	for x := range n {
		from := a.start[x]
		for i := from; i < nodes[from].end; i++ {
			nd := nodes[i]
			star := false
			switch nd.kind {
			case contentmodel.Choice:
				return false
			case contentmodel.Star:
				if nodes[i+1].kind != contentmodel.Name {
					return false
				}
				i++ // the body
				nd, star = nodes[i], true
			case contentmodel.Name:
			default:
				continue // Seq, Empty, Text
			}
			if nd.ref < 0 {
				return false
			}
			if prev := owner[nd.ref]; prev >= 0 && prev != int32(x) {
				return false // referenced from two content models
			}
			owner[nd.ref] = int32(x)
			if star {
				if starred[nd.ref] {
					return false
				}
				starred[nd.ref] = true
			}
		}
	}
	return true
}

// negInf is the -∞ sentinel of the difference analysis: "the difference
// can be made arbitrarily negative". Small enough that saturated
// additions cannot overflow. The speclint prepass has its own fold
// with the same sentinel (DTDFacts.MinDiff): the prepass and the prover
// keep independent rule sets.
const negInf = math.MinInt / 4

// satAdd adds with saturation: negInf absorbs, and finite sums are
// clamped to [negInf, math.MaxInt/4].
func satAdd(a, b int) int {
	if a == negInf || b == negInf {
		return negInf
	}
	s := a + b
	if s > math.MaxInt/4 {
		return math.MaxInt / 4
	}
	if s < negInf {
		return negInf
	}
	return s
}

// occInf is the +∞ sentinel of the occurrence analysis: "a word of the
// content model may repeat the type arbitrarily often".
const occInf = math.MaxInt / 4

// occRange is the occurrence interval of one type across the words of
// a content model: every word contains at least Lo and at most Hi
// occurrences (Hi == occInf under a star).
type occRange struct {
	Lo, Hi int
}

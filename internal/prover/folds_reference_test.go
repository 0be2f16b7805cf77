package prover

// This file keeps the name-keyed DTD folds the Analysis's id-based
// tables replaced — the count-bounds counter, the difference folds
// (minDiff/wordDiff), reachableAvoiding and occRanges — as the oracles
// of TestDenseFoldsMatchStringFolds and of the string-keyed reference
// engine in saturate_reference_test.go.

import (
	"math"

	"repro/internal/constraint"
	"repro/internal/contentmodel"
	"repro/internal/dtd"
	"repro/internal/pathre"
)

// refCounter computes occurrence bounds over a fixed DTD, memoizing
// the per-type folds across queries in maps keyed by type names. The
// folds are exact on non-recursive DTDs; on recursive ones a
// re-entered type conservatively contributes [0, ∞).
type refCounter struct {
	d    *dtd.DTD
	min  map[[2]string]int    // {type, tau} -> min count in a type-rooted tree
	max  map[[2]string]Bounds // {type, tau} -> max count (Min field unused)
	busy map[[2]string]bool
}

func newRefCounter(d *dtd.DTD) *refCounter {
	return &refCounter{
		d:    d,
		min:  map[[2]string]int{},
		max:  map[[2]string]Bounds{},
		busy: map[[2]string]bool{},
	}
}

// Node returns bounds for a tree rooted at an x node, x included.
func (c *refCounter) Node(x, tau string) Bounds {
	hi := c.nodeMax(x, tau)
	return Bounds{Min: c.nodeMin(x, tau), Max: hi.Max, Bounded: hi.Bounded}
}

// Content returns bounds for the forests derivable from a word of e.
func (c *refCounter) Content(e *contentmodel.Expr, tau string) Bounds {
	hi := c.wordMax(e, tau)
	return Bounds{Min: c.wordMin(e, tau), Max: hi.Max, Bounded: hi.Bounded}
}

func (c *refCounter) nodeMin(x, tau string) int {
	key := [2]string{x, tau}
	if v, done := c.min[key]; done {
		return v
	}
	el := c.d.Element(x)
	if el == nil || c.busy[key] {
		return 0 // unknown type or recursion: 0 is always a sound lower bound
	}
	c.busy[key] = true
	v := c.wordMin(el.Content, tau)
	if x == tau {
		v = addClamped(v, 1)
	}
	c.busy[key] = false
	c.min[key] = v
	return v
}

func (c *refCounter) wordMin(e *contentmodel.Expr, tau string) int {
	switch e.Kind {
	case contentmodel.Name:
		return c.nodeMin(e.Ref, tau)
	case contentmodel.Seq:
		sum := 0
		for _, k := range e.Kids {
			sum = addClamped(sum, c.wordMin(k, tau))
		}
		return sum
	case contentmodel.Choice:
		best := math.MaxInt
		for _, k := range e.Kids {
			best = min(best, c.wordMin(k, tau))
		}
		if best == math.MaxInt {
			return 0
		}
		return best
	}
	return 0 // Empty, Text, Star
}

func (c *refCounter) nodeMax(x, tau string) Bounds {
	key := [2]string{x, tau}
	if v, done := c.max[key]; done {
		return v
	}
	el := c.d.Element(x)
	if el == nil {
		return Bounds{Bounded: true} // undeclared types never occur
	}
	if c.busy[key] {
		return Bounds{} // recursion: no finite upper bound claimed
	}
	c.busy[key] = true
	v := c.wordMax(el.Content, tau)
	if v.Bounded && x == tau {
		v.Max = addClamped(v.Max, 1)
	}
	c.busy[key] = false
	c.max[key] = v
	return v
}

func (c *refCounter) wordMax(e *contentmodel.Expr, tau string) Bounds {
	switch e.Kind {
	case contentmodel.Name:
		return c.nodeMax(e.Ref, tau)
	case contentmodel.Seq, contentmodel.Choice:
		best := Bounds{Bounded: true}
		for _, k := range e.Kids {
			v := c.wordMax(k, tau)
			if !v.Bounded {
				return Bounds{}
			}
			if e.Kind == contentmodel.Seq {
				best.Max = addClamped(best.Max, v.Max)
			} else {
				best.Max = max(best.Max, v.Max)
			}
		}
		return best
	case contentmodel.Star:
		if v := c.wordMax(e.Kids[0], tau); v.Bounded && v.Max == 0 {
			return Bounds{Bounded: true}
		}
		return Bounds{}
	}
	return Bounds{Bounded: true} // Empty, Text
}

// minDiff returns, for every type x, the minimum of
// count(σ) − count(τ) over all conforming trees rooted at an x node
// (x included); negInf means unbounded below. Only meaningful on
// non-recursive DTDs.
func minDiff(d *dtd.DTD, sigma, tau string) map[string]int {
	memo := map[string]int{}
	var nodeDiff func(x string) int
	nodeDiff = func(x string) int {
		if v, done := memo[x]; done {
			return v
		}
		v := wordDiff(d.Element(x).Content, nodeDiff)
		if x == sigma {
			v = satAdd(v, 1)
		}
		if x == tau {
			v = satAdd(v, -1)
		}
		memo[x] = v
		return v
	}
	for _, name := range d.Names {
		nodeDiff(name)
	}
	return memo
}

// wordDiff folds per-symbol minimum differences over a content model:
// sequences add, choices take the minimum, a star is 0 repetitions
// unless its body can go negative (then the minimum is unbounded).
func wordDiff(e *contentmodel.Expr, diff func(string) int) int {
	switch e.Kind {
	case contentmodel.Name:
		return diff(e.Ref)
	case contentmodel.Seq:
		sum := 0
		for _, k := range e.Kids {
			sum = satAdd(sum, wordDiff(k, diff))
			if sum == negInf {
				return negInf
			}
		}
		return sum
	case contentmodel.Choice:
		best := math.MaxInt
		for _, k := range e.Kids {
			best = min(best, wordDiff(k, diff))
		}
		if best == math.MaxInt {
			return 0
		}
		return best
	case contentmodel.Star:
		if wordDiff(e.Kids[0], diff) < 0 {
			return negInf
		}
		return 0
	}
	return 0 // Empty, Text
}

// reachableAvoiding returns the set of types reachable from the root in
// the type-reference graph without passing through p (the root itself
// is included unless it is p).
func reachableAvoiding(d *dtd.DTD, p string) map[string]bool {
	seen := map[string]bool{}
	if d.Root == p {
		return seen
	}
	seen[d.Root] = true
	queue := []string{d.Root}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		el := d.Element(x)
		if el == nil {
			continue
		}
		for _, y := range el.Content.Alphabet() {
			if y == p || seen[y] {
				continue
			}
			seen[y] = true
			queue = append(queue, y)
		}
	}
	return seen
}

// occRanges folds a content model into the occurrence interval of
// every type it references, in a single walk: sequences add intervals,
// choices take the union's hull, and a star drops the floor to zero
// and lifts any positive ceiling to occInf.
func occRanges(e *contentmodel.Expr) map[string]occRange {
	switch e.Kind {
	case contentmodel.Name:
		return map[string]occRange{e.Ref: {Lo: 1, Hi: 1}}
	case contentmodel.Seq:
		out := map[string]occRange{}
		for _, k := range e.Kids {
			for t, o := range occRanges(k) {
				cur := out[t]
				out[t] = occRange{Lo: cur.Lo + o.Lo, Hi: min(cur.Hi+o.Hi, occInf)}
			}
		}
		return out
	case contentmodel.Choice:
		kids := make([]map[string]occRange, len(e.Kids))
		union := map[string]bool{}
		for i, k := range e.Kids {
			kids[i] = occRanges(k)
			for t := range kids[i] {
				union[t] = true
			}
		}
		out := map[string]occRange{}
		for t := range union {
			lo, hi := math.MaxInt, 0
			for _, ko := range kids {
				o := ko[t] // absent branch contributes zero occurrences
				lo, hi = min(lo, o.Lo), max(hi, o.Hi)
			}
			out[t] = occRange{Lo: lo, Hi: hi}
		}
		return out
	case contentmodel.Star:
		out := occRanges(e.Kids[0])
		for t, o := range out {
			if o.Hi > 0 {
				o.Hi = occInf
			}
			out[t] = occRange{Lo: 0, Hi: o.Hi}
		}
		return out
	}
	return nil // Empty, Text: no type references
}

// nodeExprOf returns the node-language expression β·τ of a unary
// target.
func nodeExprOf(t constraint.Target) *pathre.Expr {
	return pathre.Concat(targetPath(t), pathre.Symbol(t.Type))
}

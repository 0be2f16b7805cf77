package prover

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/contentmodel"
)

// cnode is one content-model node over type ids. A model is stored in
// pre-order: a node's first kid follows it, each next kid starts at the
// previous kid's end, and end is one past the node's whole subtree.
type cnode struct {
	kind contentmodel.Kind
	ref  int32 // the type id of a Name node
	end  int32
}

// models returns the DTD's content models over type ids: type x's
// model is rooted at nodes[start[x]]. Built on first use.
func (a *Analysis) models() []cnode {
	if a.nodes == nil {
		n := len(a.d.Names)
		a.start = make([]int32, n)
		for x, name := range a.d.Names {
			a.start[x] = int32(len(a.nodes))
			a.nodes = a.appendModel(a.nodes, a.d.Element(name).Content)
		}
	}
	return a.nodes
}

// appendModel appends e in pre-order.
func (a *Analysis) appendModel(nodes []cnode, e *contentmodel.Expr) []cnode {
	at := len(nodes)
	nodes = append(nodes, cnode{kind: e.Kind, ref: -1})
	if id, ok := a.ids[e.Ref]; ok && e.Kind == contentmodel.Name {
		nodes[at].ref = id
	}
	for _, k := range e.Kids {
		nodes = a.appendModel(nodes, k)
	}
	nodes[at].end = int32(len(nodes))
	return nodes
}

// model returns the root index of type x's content model.
func (a *Analysis) model(x int32) int32 {
	a.models()
	return a.start[x]
}

// Bounds is a sound interval on a node count: every conforming tree (or
// forest) has at least Min and, when Bounded, at most Max occurrences
// of the counted type. Both are clamped at math.MaxInt/4 so downstream
// saturated arithmetic cannot overflow.
type Bounds struct {
	Min     int
	Max     int
	Bounded bool
}

// countFold is the count-bounds fold of one type τ: for every type x,
// the bounds on the τ nodes of a tree rooted at an x node (x
// included), filled in on demand. The fold is exact on the
// non-recursive DTDs it is used on.
type countFold struct {
	a    *Analysis
	tau  int32
	node []Bounds
	done []bool
}

// countFold returns the memoized count-bounds fold of τ.
func (a *Analysis) countFold(tau int32) *countFold {
	if a.counts == nil {
		a.counts = make([]*countFold, len(a.d.Names))
	}
	if a.counts[tau] == nil {
		n := len(a.d.Names)
		a.counts[tau] = &countFold{a: a, tau: tau, node: make([]Bounds, n), done: make([]bool, n)}
	}
	return a.counts[tau]
}

// nodeBounds returns the bounds for a tree rooted at an x node.
func (c *countFold) nodeBounds(x int32) Bounds {
	if !c.done[x] {
		b := c.word(c.a.model(x))
		if x == c.tau {
			b.Min = addClamped(b.Min, 1)
			if b.Bounded {
				b.Max = addClamped(b.Max, 1)
			}
		}
		c.node[x], c.done[x] = b, true
	}
	return c.node[x]
}

// word returns the bounds for the forests derivable from a word of the
// model rooted at node i: sequences add, choices take the least
// minimum and the greatest maximum, a star has minimum 0 and no
// maximum unless its body never holds a τ node.
func (c *countFold) word(i int32) Bounds {
	nodes := c.a.nodes
	nd := nodes[i]
	switch nd.kind {
	case contentmodel.Name:
		if nd.ref < 0 {
			return Bounds{Bounded: true} // undeclared types never occur
		}
		return c.nodeBounds(nd.ref)
	case contentmodel.Seq:
		sum := Bounds{Bounded: true}
		for k := i + 1; k < nd.end; k = nodes[k].end {
			b := c.word(k)
			sum.Min = addClamped(sum.Min, b.Min)
			sum.Max = addClamped(sum.Max, b.Max)
			sum.Bounded = sum.Bounded && b.Bounded
		}
		if !sum.Bounded {
			sum.Max = 0
		}
		return sum
	case contentmodel.Choice:
		best := Bounds{Min: math.MaxInt, Bounded: true}
		for k := i + 1; k < nd.end; k = nodes[k].end {
			b := c.word(k)
			best.Min = min(best.Min, b.Min)
			best.Max = max(best.Max, b.Max)
			best.Bounded = best.Bounded && b.Bounded
		}
		if best.Min == math.MaxInt {
			best.Min = 0
		}
		if !best.Bounded {
			best.Max = 0
		}
		return best
	case contentmodel.Star:
		if b := c.word(i + 1); b.Bounded && b.Max == 0 {
			return Bounds{Bounded: true}
		}
		return Bounds{}
	}
	return Bounds{Bounded: true} // Empty, Text
}

// addClamped adds non-negative counts, clamping at math.MaxInt/4.
func addClamped(a, b int) int {
	s := a + b
	if s > math.MaxInt/4 || s < 0 {
		return math.MaxInt / 4
	}
	return s
}

// minDiffDense returns the difference fold of (σ, τ): md[x] is the
// minimum of count(σ) − count(τ) over the conforming trees rooted at an
// x node (x included), or negInf when it is unbounded below. Only
// meaningful on non-recursive DTDs.
func (a *Analysis) minDiffDense(sigma, tau int32) []int {
	n := len(a.d.Names)
	md := make([]int, n)
	done := make([]bool, n)
	var node func(x int32) int
	node = func(x int32) int {
		if !done[x] {
			v := a.wordDiff(a.model(x), func(y int32) int { return node(y) })
			if x == sigma {
				v = satAdd(v, 1)
			}
			if x == tau {
				v = satAdd(v, -1)
			}
			md[x], done[x] = v, true
		}
		return md[x]
	}
	for x := range n {
		node(int32(x))
	}
	return md
}

// wordDiff folds per-symbol minimum differences over the model rooted
// at node i: sequences add, choices take the minimum, a star is 0
// repetitions unless its body can go negative (then the minimum is
// unbounded).
func (a *Analysis) wordDiff(i int32, diff func(int32) int) int {
	nodes := a.nodes
	nd := nodes[i]
	switch nd.kind {
	case contentmodel.Name:
		return diff(nd.ref)
	case contentmodel.Seq:
		sum := 0
		for k := i + 1; k < nd.end; k = nodes[k].end {
			sum = satAdd(sum, a.wordDiff(k, diff))
			if sum == negInf {
				return negInf
			}
		}
		return sum
	case contentmodel.Choice:
		best := math.MaxInt
		for k := i + 1; k < nd.end; k = nodes[k].end {
			best = min(best, a.wordDiff(k, diff))
		}
		if best == math.MaxInt {
			return 0
		}
		return best
	case contentmodel.Star:
		if a.wordDiff(i+1, diff) < 0 {
			return negInf
		}
		return 0
	}
	return 0 // Empty, Text
}

// occCell is one type's occurrence interval in a content model.
type occCell struct {
	tau int32
	occRange
}

// occFold appends to buf the occurrence interval of every type the
// model rooted at node i references, one cell per type in id order:
// sequences add intervals, choices take the union's hull, and a star
// drops the floor to zero and lifts any positive ceiling to occInf. Sub-results are appended behind the
// caller's cells and merged in place, so the fold needs no buffer but
// buf.
func (a *Analysis) occFold(buf []occCell, i int32) []occCell {
	nodes := a.nodes
	nd := nodes[i]
	mark := len(buf)
	switch nd.kind {
	case contentmodel.Name:
		if nd.ref < 0 {
			return buf // undeclared types have no occurrence row
		}
		return append(buf, occCell{nd.ref, occRange{Lo: 1, Hi: 1}})
	case contentmodel.Seq, contentmodel.Choice:
		kids := 0
		for k := i + 1; k < nd.end; k = nodes[k].end {
			buf = a.occFold(buf, k)
			kids++
		}
		cells := buf[mark:]
		slices.SortFunc(cells, func(x, y occCell) int { return cmp.Compare(x.tau, y.tau) })
		out := mark
		for j := 0; j < len(cells); {
			g := j + 1
			for g < len(cells) && cells[g].tau == cells[j].tau {
				g++
			}
			c := cells[j]
			for _, o := range cells[j+1 : g] {
				if nd.kind == contentmodel.Seq {
					c.Lo += o.Lo
					c.Hi = min(c.Hi+o.Hi, occInf)
				} else {
					c.Lo = min(c.Lo, o.Lo)
					c.Hi = max(c.Hi, o.Hi)
				}
			}
			if nd.kind == contentmodel.Choice && g-j < kids {
				c.Lo = 0 // a branch without the type contributes zero
			}
			buf[out] = c
			out++
			j = g
		}
		return buf[:out]
	case contentmodel.Star:
		buf = a.occFold(buf, i+1)
		for j := mark; j < len(buf); j++ {
			buf[j].Lo = 0
			if buf[j].Hi > 0 {
				buf[j].Hi = occInf
			}
		}
		return buf
	}
	return buf // Empty, Text
}

package prover

import (
	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/pathre"
)

// regionOf builds the Region of a unary target: its node set is the
// language L(β·τ) over root-to-node type paths.
func regionOf(t constraint.Target) Region {
	return Region{Path: targetPath(t).String(), Type: t.Type, Attr: t.Attrs[0]}
}

// targetPath returns a target's path β; path-free targets get β = _*,
// i.e. all τ nodes.
func targetPath(t constraint.Target) *pathre.Expr {
	if t.Path == nil {
		return pathre.AnyPath()
	}
	return t.Path
}

// emptyIntersect reports L(a) ∩ L(b) = ∅ for complete DFAs over the
// same alphabet, by reachability over the pair graph.
func emptyIntersect(a, b *pathre.DFA) bool {
	type pair struct{ x, y int }
	start := pair{a.Start, b.Start}
	seen := map[pair]bool{start: true}
	queue := []pair{start}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if a.Accept[p.x] && b.Accept[p.y] {
			return false
		}
		for _, sym := range a.Alphabet {
			n := pair{a.Step(p.x, sym), b.Step(p.y, sym)}
			if !seen[n] {
				seen[n] = true
				queue = append(queue, n)
			}
		}
	}
	return true
}

// forcedNonEmpty reports whether every conforming document contains a
// node whose root path is accepted by the DFA: it searches the graph of
// (element type, DFA state) pairs from the root, following only
// forced children — types every word of the parent's content model
// contains at least once — so any accepting pair it reaches is realized
// in every conforming document.
func forcedNonEmpty(d *dtd.DTD, dfa *pathre.DFA) bool {
	type node struct {
		typ   string
		state int
	}
	start := node{d.Root, dfa.Step(dfa.Start, d.Root)}
	seen := map[node]bool{start: true}
	queue := []node{start}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if dfa.Accept[n.state] {
			return true
		}
		el := d.Element(n.typ)
		if el == nil {
			continue
		}
		for _, child := range el.Content.Alphabet() {
			if el.Content.MinCount(child) < 1 {
				continue
			}
			next := node{child, dfa.Step(n.state, child)}
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	return false
}

package cardinality

import (
	"fmt"

	"repro/internal/dtd"
	"repro/internal/xmltree"
)

// Realize constructs an XML tree whose per-(symbol, state) element
// counts match the solution exactly (the constructive direction of
// Lemma 6). The solution must satisfy the flow equations and have
// connected support (see UnreachedSupport). Attribute values are left
// empty; callers assign them afterwards (Lemmas 1, 2 and 4).
//
// maxNodes guards against runaway solutions; Realize fails rather than
// building a tree larger than that.
//
// The returned map gives, for every created element, its flow node
// index, which value assignment uses to recover the regions the
// element belongs to.
func (f *Flow) Realize(vals []int64, maxNodes int) (*xmltree.Tree, map[*xmltree.Node]int, error) {
	origin := map[*xmltree.Node]int{}
	tree, err := f.realize(vals, maxNodes, origin)
	if err != nil {
		return nil, nil, err
	}
	return tree, origin, nil
}

// realize is Realize, recording every element's flow node in origin
// unless origin is nil. The elements share one allocation.
func (f *Flow) realize(vals []int64, maxNodes int, origin map[*xmltree.Node]int) (*xmltree.Tree, error) {
	rem := make([]int64, len(f.Nodes))
	var total int64
	for i := range f.Nodes {
		rem[i] = vals[f.Vars[i]]
	}
	for _, i := range f.elements {
		total += rem[i]
	}
	if maxNodes > 0 && total > int64(maxNodes) {
		return nil, fmt.Errorf("cardinality: solution needs %d elements, above the %d-node realization limit", total, maxNodes)
	}

	type pending struct {
		node *xmltree.Node
		fn   int
	}
	// The elements come from one slab of the solution's element count;
	// an unbounded realization caps the slab at 2^16 and allocates any
	// element past it on its own.
	elements := make([]xmltree.Node, min(total, 1<<16))
	queue := make([]pending, 0, len(elements))

	newElement := func(fn int) (*xmltree.Node, error) {
		if rem[fn] <= 0 {
			return nil, fmt.Errorf("cardinality: count of %s exhausted", f.nodeString(fn))
		}
		rem[fn]--
		name := f.N.Name(f.Nodes[fn].Sym)
		var n *xmltree.Node
		if len(elements) > 0 {
			n, elements = &elements[0], elements[1:]
		} else {
			n = new(xmltree.Node)
		}
		n.Label = name
		if attrs := f.N.Orig.Attrs(name); len(attrs) > 0 {
			n.Attrs = make(map[string]string, len(attrs))
			for _, l := range attrs {
				n.Attrs[l] = ""
			}
		}
		if origin != nil {
			origin[n] = fn
		}
		queue = append(queue, pending{n, fn})
		return n, nil
	}

	// expand emits the children of parent derived from the rule of the
	// grammar symbol at flow node sym (a nonterminal or the element's
	// own type symbol), consuming counts.
	var expand func(parent *xmltree.Node, fn int) error
	expand = func(parent *xmltree.Node, fn int) error {
		switch f.rule(fn).Kind {
		case dtd.RuleEmpty:
			return nil
		case dtd.RuleText:
			parent.Append(xmltree.NewText("t"))
			return nil
		case dtd.RuleRef:
			child, err := newElement(f.operandA(fn))
			if err != nil {
				return err
			}
			parent.Append(child)
			return nil
		case dtd.RuleSeq:
			for _, op := range [2]int{f.operandA(fn), f.operandB(fn)} {
				if rem[op] <= 0 {
					return fmt.Errorf("cardinality: count of %s exhausted in sequence", f.nodeString(op))
				}
				rem[op]--
				if err := expand(parent, op); err != nil {
					return err
				}
			}
			return nil
		case dtd.RuleChoice:
			a, b := f.operandA(fn), f.operandB(fn)
			pick := a
			if rem[a] <= 0 {
				pick = b
			}
			if rem[pick] <= 0 {
				return fmt.Errorf("cardinality: both choice branches of %s exhausted", f.nodeString(fn))
			}
			rem[pick]--
			return expand(parent, pick)
		case dtd.RuleStar:
			// Give all remaining iterations to the first instance that
			// expands this star; any distribution among instances
			// yields a conforming tree, and totals match by the flow
			// equations.
			op := f.operandA(fn)
			take := rem[op]
			rem[op] = 0
			for k := int64(0); k < take; k++ {
				if err := expand(parent, op); err != nil {
					return err
				}
			}
			return nil
		}
		return fmt.Errorf("cardinality: unknown rule kind")
	}

	root, err := newElement(f.Root)
	if err != nil {
		return nil, fmt.Errorf("cardinality: root count is zero")
	}
	for next := 0; next < len(queue); next++ {
		if err := expand(queue[next].node, queue[next].fn); err != nil {
			return nil, err
		}
	}
	for i, r := range rem {
		if r != 0 {
			return nil, fmt.Errorf("cardinality: %d unplaced instances of %s (disconnected support?)", r, f.nodeString(i))
		}
	}
	return &xmltree.Tree{Root: root}, nil
}

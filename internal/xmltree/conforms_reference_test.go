package xmltree

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/contentmodel"
	"repro/internal/dtd"
)

// referenceConforms is Conforms as it was before content models were
// compiled: every element builds its word of child labels and matches
// it by Brzozowski derivatives. It is the oracle for the verdict and
// the error text.
func referenceConforms(t *Tree, d *dtd.DTD) error {
	if t.Root == nil {
		return &ConformanceError{Msg: "empty tree"}
	}
	if t.Root.Label != d.Root {
		return &ConformanceError{Node: t.Root, Msg: fmt.Sprintf("root has type %q, want %q", t.Root.Label, d.Root)}
	}
	var check func(n *Node) error
	check = func(n *Node) error {
		el := d.Element(n.Label)
		if el == nil {
			return &ConformanceError{Node: n, Msg: fmt.Sprintf("element type %q not declared", n.Label)}
		}
		word := make([]string, len(n.Children))
		for i, k := range n.Children {
			if k.IsText {
				word[i] = contentmodel.TextSymbol
			} else {
				word[i] = k.Label
			}
		}
		if !el.Content.Match(word) {
			return &ConformanceError{Node: n, Msg: fmt.Sprintf("children %v do not match content model %s", word, el.Content)}
		}
		for _, l := range el.Attrs {
			if _, ok := n.Attrs[l]; !ok {
				return &ConformanceError{Node: n, Msg: fmt.Sprintf("missing attribute %q", l)}
			}
		}
		if len(n.Attrs) != len(el.Attrs) {
			for l := range n.Attrs {
				if !el.HasAttr(l) {
					return &ConformanceError{Node: n, Msg: fmt.Sprintf("undeclared attribute %q", l)}
				}
			}
		}
		for _, k := range n.Children {
			if !k.IsText {
				if err := check(k); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return check(t.Root)
}

// perturb makes one random edit to a random element of the tree: it
// drops, doubles or swaps children, relabels a child, adds a text
// child, or drops or adds an attribute. Some edits keep the tree
// conforming.
func perturb(rng *rand.Rand, tree *Tree, d *dtd.DTD) {
	var nodes []*Node
	tree.Walk(func(n *Node) { nodes = append(nodes, n) })
	n := nodes[rng.Intn(len(nodes))]
	k := len(n.Children)
	switch rng.Intn(7) {
	case 0:
		if k > 0 {
			i := rng.Intn(k)
			n.Children = append(n.Children[:i:i], n.Children[i+1:]...)
		}
	case 1:
		if k > 0 {
			i := rng.Intn(k)
			n.Children = append(n.Children[:i+1:i+1], n.Children[i:]...)
		}
	case 2:
		if k > 1 {
			i := rng.Intn(k - 1)
			n.Children[i], n.Children[i+1] = n.Children[i+1], n.Children[i]
		}
	case 3:
		if k > 0 {
			c := n.Children[rng.Intn(k)]
			if !c.IsText {
				c.Label = d.Names[rng.Intn(len(d.Names))]
			}
		}
	case 4:
		n.Append(NewText("t"))
	case 5:
		for l := range n.Attrs {
			delete(n.Attrs, l)
			break
		}
	default:
		n.SetAttr("zz", "v")
	}
}

// TestConformsMatchesReference checks random trees of random DTDs,
// conforming ones and ones with one to three random edits, with
// Conforms and with the derivative-based reference: both must agree
// on conformance and report the same first violation.
func TestConformsMatchesReference(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 200
	}
	rng := rand.New(rand.NewSource(17))
	checked, failing := 0, 0
	for i := 0; i < n; i++ {
		d := dtd.Random(rng, dtd.RandomOptions{
			Types: 2 + rng.Intn(6), MaxAttrs: 2, MaxExprSize: 2 + rng.Intn(8),
			AllowStar: rng.Intn(4) != 0, AllowRecursion: rng.Intn(3) == 0, AllowText: rng.Intn(2) == 0,
		})
		for k := 0; k < 4; k++ {
			tree, err := Generate(d, rng, GenerateOptions{MaxNodes: 30})
			if err != nil {
				continue
			}
			for e := rng.Intn(4); e > 0; e-- {
				perturb(rng, tree, d)
			}
			got, want := tree.Conforms(d), referenceConforms(tree, d)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("DTD:\n%s\ntree:\n%s\nConforms: %v\nreference: %v", d, tree.XML(), got, want)
			}
			checked++
			if want != nil {
				failing++
			}
		}
	}
	if failing == 0 || failing == checked {
		t.Fatalf("coverage too thin: %d of %d trees fail", failing, checked)
	}
	t.Logf("%d trees, %d not conforming", checked, failing)
}

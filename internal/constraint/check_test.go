package constraint

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/pathre"
	"repro/internal/xmltree"
)

// refEncodeTuple is the fmt-based, always length-prefixed tuple key
// encodeTuple replaced.
func refEncodeTuple(vals []string) string {
	var b strings.Builder
	for _, v := range vals {
		fmt.Fprintf(&b, "%d:%s;", len(v), v)
	}
	return b.String()
}

// refContexts is the scope list Check used before it bucketed the
// tree by label: the root, or one whole-tree walk per context type.
func refContexts(t *xmltree.Tree, context string) []*xmltree.Node {
	if context == "" {
		return []*xmltree.Node{t.Root}
	}
	return t.Ext(context)
}

// refCheck is Check as it was before it memoized path extents and
// keyed one-value tuples by the bare value: every extent call compiles
// its path target's DFA again, and every tuple key is length-prefixed.
// It is the oracle for the violation list, order and texts.
func refCheck(t *xmltree.Tree, set *Set) []Violation {
	extent := func(scope *xmltree.Node, relative bool, tgt Target) []*xmltree.Node {
		if tgt.Path != nil {
			return t.NodesMatching(pathre.Concat(tgt.Path, pathre.Symbol(tgt.Type)))
		}
		var out []*xmltree.Node
		var walk func(n *xmltree.Node)
		walk = func(n *xmltree.Node) {
			if n.Label == tgt.Type {
				out = append(out, n)
			}
			for _, k := range n.Children {
				if !k.IsText {
					walk(k)
				}
			}
		}
		if scope == nil {
			scope = t.Root
		}
		if relative {
			for _, k := range scope.Children {
				if !k.IsText {
					walk(k)
				}
			}
		} else {
			walk(scope)
		}
		return out
	}
	var out []Violation
	for _, k := range set.Keys {
		for _, scope := range refContexts(t, k.Context) {
			seen := map[string]*xmltree.Node{}
			for _, n := range extent(scope, k.Context != "", k.Target) {
				vals, ok := n.AttrList(k.Target.Attrs)
				if !ok {
					out = append(out, Violation{k.String(), fmt.Sprintf("node lacks key attribute(s) %v", k.Target.Attrs), []*xmltree.Node{n}})
					continue
				}
				key := refEncodeTuple(vals)
				if prev, dup := seen[key]; dup {
					out = append(out, Violation{k.String(), fmt.Sprintf("duplicate key value %v", vals), []*xmltree.Node{prev, n}})
					continue
				}
				seen[key] = n
			}
		}
	}
	for _, c := range set.Incls {
		for _, scope := range refContexts(t, c.Context) {
			have := map[string]bool{}
			for _, n := range extent(scope, c.Context != "", c.To) {
				if vals, ok := n.AttrList(c.To.Attrs); ok {
					have[refEncodeTuple(vals)] = true
				}
			}
			for _, n := range extent(scope, c.Context != "", c.From) {
				vals, ok := n.AttrList(c.From.Attrs)
				if !ok {
					out = append(out, Violation{c.String(), fmt.Sprintf("node lacks foreign-key attribute(s) %v", c.From.Attrs), []*xmltree.Node{n}})
					continue
				}
				if !have[refEncodeTuple(vals)] {
					out = append(out, Violation{c.String(), fmt.Sprintf("value %v has no matching %s", vals, c.To), []*xmltree.Node{n}})
				}
			}
		}
	}
	return out
}

// TestCheckMatchesReference compares Check with refCheck on the
// testdata document and on generated, perturbed documents of random
// specs mixing absolute, relative and regular-path targets.
func TestCheckMatchesReference(t *testing.T) {
	same := func(name string, tree *xmltree.Tree, set *Set) {
		t.Helper()
		got, want := Check(tree, set), refCheck(tree, set)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Check = %v, reference %v\nΣ:\n%s\nDoc:\n%s", name, got, want, set, tree.XML())
		}
	}
	dir := filepath.Join("..", "..", "testdata")
	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	geo, err := xmltree.ParseDocumentString(read("geography.xml"))
	if err != nil {
		t.Fatal(err)
	}
	for _, keys := range []string{"geography.keys", "library.keys", "school.keys", "school-extended.keys"} {
		set, err := ParseSet(read(keys))
		if err != nil {
			t.Fatal(err)
		}
		same("geography.xml/"+keys, geo, set)
	}
	for _, p := range [][2]string{{"school.dtd", "school-extended.keys"}, {"library.dtd", "library.keys"}} {
		d := dtd.MustParse(read(p[0]))
		set, err := ParseSet(read(p[1]))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 20; i++ {
			tree, err := xmltree.Generate(d, rng, xmltree.GenerateOptions{MaxNodes: 40, AttrValues: 3})
			if err != nil {
				t.Fatal(err)
			}
			same(fmt.Sprintf("%s/%d", p[0], i), tree, set)
		}
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		d := dtd.Random(rng, dtd.RandomOptions{
			Types: 2 + rng.Intn(4), MaxAttrs: 2, MaxExprSize: 6,
			AllowStar: true, AllowText: rng.Intn(2) == 0,
		})
		var tas []Target
		for _, name := range d.Names {
			for _, a := range d.Attrs(name) {
				tas = append(tas, Target{Type: name, Attrs: []string{a}})
			}
		}
		if len(tas) == 0 {
			continue
		}
		target := func() Target {
			tgt := tas[rng.Intn(len(tas))]
			switch rng.Intn(3) {
			case 1:
				tgt.Path = pathre.Concat(pathre.Symbol(d.Root), pathre.AnyPath())
			case 2:
				tgt.Path = pathre.Concat(pathre.Symbol(d.Root), pathre.Wildcard())
			}
			return tgt
		}
		set := &Set{}
		for i := 1 + rng.Intn(3); i > 0; i-- {
			k := Key{Target: target()}
			if k.Target.Path == nil && rng.Intn(2) == 0 {
				k.Context = d.Names[rng.Intn(len(d.Names))]
			}
			set.AddKey(k)
		}
		for i := rng.Intn(3); i > 0; i-- {
			set.AddInclusion(Inclusion{From: target(), To: target()})
		}
		for doc := 0; doc < 4; doc++ {
			tree, err := xmltree.Generate(d, rng, xmltree.GenerateOptions{MaxNodes: 30, AttrValues: 2})
			if err != nil {
				t.Fatal(err)
			}
			same(fmt.Sprintf("random/%d/%d", trial, doc), tree, set)
		}
	}
}

// TestCheckTupleKeys pins the tuple encoding's unambiguity: values that
// concatenate alike, with or without separators, stay distinct keys; a
// one-value foreign key never matches a two-value target whose encoded
// key it spells out; and a same-arity multi-value inclusion still
// matches.
func TestCheckTupleKeys(t *testing.T) {
	db := xmltree.NewElement("db")
	db.Append(
		xmltree.NewElement("r").SetAttr("a", "ab").SetAttr("b", "c"),
		xmltree.NewElement("r").SetAttr("a", "a").SetAttr("b", "bc"),
		xmltree.NewElement("r").SetAttr("a", "x;y").SetAttr("b", "z"),
		xmltree.NewElement("r").SetAttr("a", "x").SetAttr("b", "y;z"),
		xmltree.NewElement("r").SetAttr("a", "1:x;").SetAttr("b", ""),
		xmltree.NewElement("r").SetAttr("a", "").SetAttr("b", "1:x;"),
		xmltree.NewElement("r").SetAttr("a", "p").SetAttr("b", "q"),
		xmltree.NewElement("f").SetAttr("x", "1:p;1:q;"),
		xmltree.NewElement("g").SetAttr("x", "p").SetAttr("y", "q"),
	)
	tree := &xmltree.Tree{Root: db}
	rab := Target{Type: "r", Attrs: []string{"a", "b"}}
	set := &Set{}
	set.AddKey(Key{Target: rab})
	set.AddInclusion(Inclusion{From: Target{Type: "g", Attrs: []string{"x", "y"}}, To: rab})
	mismatch := Inclusion{From: Target{Type: "f", Attrs: []string{"x"}}, To: rab}
	set.AddInclusion(mismatch)
	got := Check(tree, set)
	if len(got) != 1 || got[0].Constraint != mismatch.String() {
		t.Fatalf("violations = %v, want exactly one of %s", got, mismatch)
	}
	if want := refCheck(tree, set); !reflect.DeepEqual(got, want) {
		t.Fatalf("Check = %v, reference %v", got, want)
	}
}

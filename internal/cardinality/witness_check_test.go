package cardinality_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cardinality"
	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/experiments"
	"repro/internal/pathre"
	"repro/internal/xmltree"
)

// countingAutomata is a regular encoding as the witness check's
// automata source, counting the path targets it answered.
type countingAutomata struct {
	enc          *cardinality.RegularEncoding
	asked, found int
}

func (c *countingAutomata) PathDFA(tgt constraint.Target) *pathre.DFA {
	c.asked++
	dfa := c.enc.PathDFA(tgt)
	if dfa != nil {
		c.found++
	}
	return dfa
}

// TestFormAutomataCheckMatchesCompiled checks random conforming trees
// of every spec against Σ twice — on the encoding's memoized region
// automata, as a regular witness is checked, and with every path
// automaton compiled for the call, as constraint.Check does — and
// requires identical violation lists. Each tree is checked with the
// generator's values drawn from a small pool (clashes and dangling
// references), with every value distinct, and with every value equal.
// The specs are the school spec and its extension, seeded Figure 3
// regular draws, and random DTDs with regular-path sets, targets
// parsed separately from their regions' included.
func TestFormAutomataCheckMatchesCompiled(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 200
	}
	type spec struct {
		name string
		d    *dtd.DTD
		set  *constraint.Set
	}
	var specs []spec
	school, schoolSet := loadSpec(t, "school", "school")
	_, extended := loadSpec(t, "school", "school-extended")
	specs = append(specs, spec{"school", school, schoolSet}, spec{"school-extended", school, extended})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 6; i++ {
		in := experiments.Fig3Regular(rng, 2+i%2)
		specs = append(specs, spec{fmt.Sprintf("fig3-regular/%d", i), in.D, in.Set})
	}
	for i := 0; len(specs) < n; i++ {
		d := dtd.Random(rng, dtd.RandomOptions{
			Types: 2 + rng.Intn(5), MaxAttrs: 2, MaxExprSize: 2 + rng.Intn(6),
			AllowStar: rng.Intn(3) > 0, AllowRecursion: i%2 == 1, AllowText: rng.Intn(2) == 0,
		})
		set, _ := randomReferenceSet(rng, d)
		if set.Validate(d) != nil || !constraint.Classify(set).Regular {
			continue
		}
		specs = append(specs, spec{fmt.Sprintf("random/%d", i), d, set})
	}
	trees, violations, paths := 0, 0, 0
	for _, s := range specs {
		enc, err := cardinality.NewDTDForm(s.d).EncodeRegular(s.set)
		if err != nil {
			continue
		}
		// A set parsed again from its rendering names every path by a
		// fresh expression, which no region keeps.
		reparsed, err := constraint.ParseSet(s.set.String())
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for k := 0; k < 3; k++ {
			tree, err := xmltree.Generate(s.d, rng, xmltree.GenerateOptions{MaxNodes: 40, AttrValues: 2})
			if err != nil {
				continue
			}
			for _, values := range []string{"pool", "distinct", "equal"} {
				serial := 0
				tree.Walk(func(n *xmltree.Node) {
					for l := range n.Attrs {
						switch values {
						case "distinct":
							n.SetAttr(l, fmt.Sprintf("d%d", serial))
							serial++
						case "equal":
							n.SetAttr(l, "v")
						}
					}
				})
				for _, set := range []*constraint.Set{s.set, reparsed} {
					src := &countingAutomata{enc: enc}
					got := constraint.CheckWith(tree, set, src)
					want := constraint.Check(tree, set)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s (%s values): form automata found\n%v\ncompiled automata\n%v\nDTD:\n%s\nΣ:\n%s", s.name, values, got, want, s.d, set)
					}
					if src.found != src.asked {
						t.Fatalf("%s: the encoding answered %d of %d path targets", s.name, src.found, src.asked)
					}
					violations += len(got)
					paths += src.asked
				}
				trees++
			}
		}
	}
	if trees < n || violations == 0 || paths == 0 {
		t.Fatalf("coverage too thin: %d trees, %d violations, %d path targets", trees, violations, paths)
	}
	t.Logf("%d specs, %d trees, %d violations, %d path targets answered", len(specs), trees, violations, paths)
}

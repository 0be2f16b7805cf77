package prover

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/contentmodel"
	"repro/internal/dtd"
)

// TestDenseFoldsMatchStringFolds compares every id-based fold of the
// Analysis with the name-keyed fold it replaced (folds_reference_test.go),
// table by table: count bounds (refCounter) at the document and at
// every content row, the difference folds (minDiff/wordDiff), the
// occurrence table (occRanges), reachableAvoiding and the fragment
// test (dtdInFragment). It runs over the testdata DTDs, fragment-shaped
// DTDs with repeated and starred references, and random DTDs.
func TestDenseFoldsMatchStringFolds(t *testing.T) {
	var ds []*dtd.DTD
	for _, name := range []string{"geography", "library", "school"} {
		d, _ := loadSpec(t, name, name)
		ds = append(ds, d)
	}
	for _, src := range []string{
		"<!ELEMENT r (a*, b, a*)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>",
		"<!ELEMENT r (a, a, b*)><!ELEMENT a (c*)><!ELEMENT b EMPTY><!ELEMENT c EMPTY>",
		"<!ELEMENT r (a, b)><!ELEMENT a (c)><!ELEMENT b (c)><!ELEMENT c EMPTY>",
		"<!ELEMENT r ((a, b)*)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>",
		"<!ELEMENT r (a | b)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>",
		"<!ELEMENT r (a**)><!ELEMENT a EMPTY>",
		"<!ELEMENT r (#PCDATA)>",
	} {
		ds = append(ds, dtd.MustParse(src))
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		ds = append(ds, dtd.Random(rng, dtd.RandomOptions{
			Types:       2 + rng.Intn(8),
			MaxExprSize: 1 + rng.Intn(7),
			AllowStar:   i%3 != 0,
			AllowText:   i%4 == 0,
		}))
	}
	fragments := 0
	for _, d := range ds {
		a := Analyze(d)
		if got, want := a.inFragment(), dtdInFragment(d); got != want {
			t.Fatalf("inFragment = %v, dtdInFragment %v\n%s", got, want, d)
		} else if got {
			fragments++
		}
		compareOccTables(t, a, d)
		for p, name := range d.Names {
			want := reachableAvoiding(d, name)
			got := a.reachableAvoiding(int32(p))
			for x, y := range d.Names {
				if got[x] != want[y] {
					t.Fatalf("reachableAvoiding(%s)[%s] = %v, want %v\n%s", name, y, got[x], want[y], d)
				}
			}
		}
		if d.IsRecursive() {
			continue
		}
		counter := newRefCounter(d)
		for row := 0; row <= len(d.Names); row++ {
			for tau, tname := range d.Names {
				var want Bounds
				if row == 0 {
					want = counter.Node(d.Root, tname)
				} else {
					want = counter.Content(d.Element(d.Names[row-1]).Content, tname)
				}
				if got := a.countBounds(row, int32(tau)); got != want {
					t.Fatalf("countBounds(row %d, %s) = %+v, want %+v\n%s", row, tname, got, want, d)
				}
			}
		}
		for sigma, sname := range d.Names {
			for tau, tname := range d.Names {
				md := minDiff(d, sname, tname)
				for row := 0; row <= len(d.Names); row++ {
					want := md[d.Root]
					if row > 0 {
						want = wordDiff(d.Element(d.Names[row-1]).Content, func(x string) int { return md[x] })
					}
					if got := a.gap(row, int32(sigma), int32(tau)); got != want {
						t.Fatalf("gap(row %d, %s, %s) = %d, want %d\n%s", row, sname, tname, got, want, d)
					}
				}
			}
		}
	}
	if fragments < 3 {
		t.Fatalf("only %d DTDs lie in the fragment; the harness misses that case", fragments)
	}
}

// compareOccTables checks the occurrence table against occRanges of
// every parent's content model, in parent id order.
func compareOccTables(t *testing.T, a *Analysis, d *dtd.DTD) {
	t.Helper()
	start, edges := a.occTables()
	for tau, tname := range d.Names {
		var want []occEdge
		for sigma, sname := range d.Names {
			if o, ok := occRanges(d.Element(sname).Content)[tname]; ok {
				want = append(want, occEdge{sigma: int32(sigma), occRange: o})
			}
		}
		got := edges[start[tau]:start[tau+1]]
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("occurrence parents of %s = %v, want %v\n%s", tname, got, want, d)
		}
	}
}

// dtdInFragment is InFragment's condition on the DTD alone, as first
// written over names: the reference for Analysis.inFragment.
func dtdInFragment(d *dtd.DTD) bool {
	if d == nil || d.Validate() != nil || d.IsRecursive() {
		return false
	}
	// One occurrence record per type across the whole DTD.
	plain := map[string]int{} // bare references
	starred := map[string]int{}
	owner := map[string]string{} // type -> referencing model's type
	for _, name := range d.Names {
		items, ok := flattenSimple(d.Element(name).Content)
		if !ok {
			return false
		}
		for _, it := range items {
			if prev, seen := owner[it.ref]; seen && prev != name {
				return false // referenced from two content models
			}
			owner[it.ref] = name
			if it.star {
				starred[it.ref]++
			} else {
				plain[it.ref]++
			}
		}
	}
	for _, name := range d.Names {
		if s := starred[name]; s > 1 {
			return false
		}
	}
	return true
}

// item is one factor of a flattened simple content model: a type
// reference, optionally starred.
type item struct {
	ref  string
	star bool
}

// flattenSimple decomposes a content model into a sequence of τ and τ*
// factors, rejecting choices, nested stars and non-atomic star bodies.
func flattenSimple(e *contentmodel.Expr) ([]item, bool) {
	switch e.Kind {
	case contentmodel.Empty, contentmodel.Text:
		return nil, true
	case contentmodel.Name:
		return []item{{ref: e.Ref}}, true
	case contentmodel.Star:
		body := e.Kids[0]
		if body.Kind != contentmodel.Name {
			return nil, false
		}
		return []item{{ref: body.Ref, star: true}}, true
	case contentmodel.Seq:
		var out []item
		for _, k := range e.Kids {
			sub, ok := flattenSimple(k)
			if !ok {
				return nil, false
			}
			out = append(out, sub...)
		}
		return out, true
	}
	return nil, false // Choice or unknown kind
}

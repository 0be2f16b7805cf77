package constraint

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dtd"
	"repro/internal/pathre"
)

// refWFViolations is WFViolations as it was before it stopped
// rendering every constraint up front: it formats each constraint's
// string eagerly and tracks duplicates in a map. It is the oracle for
// the violation list, codes, order and texts.
func refWFViolations(s *Set, d *dtd.DTD) []WFViolation {
	var out []WFViolation
	checkTarget := func(add func(code, format string, args ...any), t Target, what string) {
		el := d.Element(t.Type)
		if el == nil {
			add(VioUndeclaredType, "%s refers to undeclared element type %q", what, t.Type)
		}
		if len(t.Attrs) == 0 {
			add(VioEmptyAttrs, "%s has an empty attribute list", what)
		}
		seen := map[string]bool{}
		for _, l := range t.Attrs {
			if el != nil && !el.HasAttr(l) {
				add(VioUndeclaredAttr, "%s uses attribute %q not in R(%s)", what, l, t.Type)
			}
			if seen[l] {
				add(VioDuplicateAttr, "%s repeats attribute %q", what, l)
			}
			seen[l] = true
		}
		if t.Path != nil {
			for _, sym := range t.Path.Symbols() {
				if d.Element(sym) == nil {
					add(VioUndeclaredType, "%s path mentions undeclared type %q", what, sym)
				}
			}
		}
	}
	for i, k := range s.Keys {
		add := func(code, format string, args ...any) {
			out = append(out, WFViolation{
				Code: code, Kind: "key", Index: i, Constraint: k.String(),
				Message: fmt.Sprintf(format, args...),
			})
		}
		checkTarget(add, k.Target, k.String())
		if k.Context != "" && d.Element(k.Context) == nil {
			add(VioUndeclaredType, "context type %q of %s not declared", k.Context, k)
		}
		if k.Context != "" && k.Target.Path != nil {
			add(VioMixedAddressing, "%s mixes relative and regular addressing", k)
		}
		if (k.Context != "" || k.Target.Path != nil) && !k.Target.Unary() {
			add(VioNonUnary, "%s: relative and regular constraints must be unary", k)
		}
	}
	for i, c := range s.Incls {
		add := func(code, format string, args ...any) {
			out = append(out, WFViolation{
				Code: code, Kind: "inclusion", Index: i, Constraint: c.String(),
				Message: fmt.Sprintf(format, args...),
			})
		}
		checkTarget(add, c.From, c.String())
		checkTarget(add, c.To, c.String())
		if len(c.From.Attrs) != len(c.To.Attrs) {
			add(VioArityMismatch, "%s: attribute lists differ in length", c)
		}
		if c.Context != "" && d.Element(c.Context) == nil {
			add(VioUndeclaredType, "context type %q of %s not declared", c.Context, c)
		}
		if c.Context != "" && (c.From.Path != nil || c.To.Path != nil) {
			add(VioMixedAddressing, "%s mixes relative and regular addressing", c)
		}
		if (c.Context != "" || c.From.Path != nil || c.To.Path != nil) && !c.From.Unary() {
			add(VioNonUnary, "%s: relative and regular constraints must be unary", c)
		}
		if !s.hasKeyFor(c) {
			add(VioMissingKey, "inclusion %s lacks the key %s -> %s that makes it a foreign key",
				c, c.To, c.To.NodeString())
		}
	}
	return out
}

// randomMalformedSet draws constraints over d that break every
// well-formedness rule now and then: undeclared types, contexts and
// attributes, empty, repeated and mismatched attribute lists, mixed
// addressing, and inclusions without their key.
func randomMalformedSet(rng *rand.Rand, d *dtd.DTD) *Set {
	types := append(append([]string(nil), d.Names...), "ghost")
	attrs := []string{"name", "id", "zz"}
	target := func() Target {
		t := Target{Type: types[rng.Intn(len(types))]}
		for i := rng.Intn(4); i > 0; i-- {
			t.Attrs = append(t.Attrs, attrs[rng.Intn(len(attrs))])
		}
		if rng.Intn(5) == 0 {
			t.Path = pathre.Concat(pathre.Symbol(types[rng.Intn(len(types))]), pathre.AnyPath())
		}
		return t
	}
	ctx := func() string {
		if rng.Intn(2) == 0 {
			return ""
		}
		return types[rng.Intn(len(types))]
	}
	s := &Set{}
	for i := rng.Intn(4); i > 0; i-- {
		s.AddKey(Key{Context: ctx(), Target: target()})
	}
	for i := rng.Intn(4); i > 0; i-- {
		c := Inclusion{Context: ctx(), From: target(), To: target()}
		if rng.Intn(2) == 0 {
			s.AddForeignKey(c)
		} else {
			s.AddInclusion(c)
		}
	}
	return s
}

func TestWFViolationsMatchReference(t *testing.T) {
	d := dtd.MustParse(geoDTD)
	rng := rand.New(rand.NewSource(8))
	found := 0
	for trial := 0; trial < 2000; trial++ {
		s := randomMalformedSet(rng, d)
		got, want := s.WFViolations(d), refWFViolations(s, d)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("WFViolations = %v\nwant %v\nΣ:\n%s", got, want, s)
		}
		found += len(want)
	}
	if found == 0 {
		t.Fatal("the generator produced no violations")
	}
}

func BenchmarkValidate(b *testing.B) {
	d := dtd.MustParse(geoDTD)
	s, err := ParseSet(geoConstraints)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Validate(d); err != nil {
			b.Fatal(err)
		}
	}
}

package xmlspec

// Fuzz targets for every user-facing parser. Under plain `go test`
// only the seed corpus runs (a robustness regression suite); use
// `go test -fuzz=FuzzX` for continuous fuzzing. The invariant in all
// cases: parsers must never panic, and anything that parses must
// render and re-parse cleanly.

import (
	"strings"
	"testing"

	"repro/internal/consistency"
	"repro/internal/constraint"
	"repro/internal/contentmodel"
	"repro/internal/dtd"
	"repro/internal/ilp"
	"repro/internal/pathre"
	"repro/internal/speclint"
	"repro/internal/xmltree"
)

func FuzzContentModelParse(f *testing.F) {
	for _, seed := range []string{
		"EMPTY", "#PCDATA", "(a, b)", "(a | b)*", "(a+, b?, (c | d))",
		"((((", "a**", "a,,b", "(#PCDATA | a)*", "(𝛂, b)", "\x00\xff",
		"(a , EMPTY | b)", strings.Repeat("(", 1000),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := contentmodel.Parse(src)
		if err != nil {
			return
		}
		again, err := contentmodel.Parse(e.String())
		if err != nil {
			t.Fatalf("rendering %q of %q does not re-parse: %v", e, src, err)
		}
		if !again.Equal(e) {
			t.Fatalf("round trip changed %q to %q", e, again)
		}
	})
}

func FuzzPathREParse(f *testing.F) {
	for _, seed := range []string{
		"r._*.student", "a ∪ b", "(a.b)*", "_", "ε", "a..b", "∪∪", "r._*.(x ∪ y).z",
		"author_info", "((a", "a)b", strings.Repeat("a.", 500) + "b",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := pathre.Parse(src)
		if err != nil {
			return
		}
		again, err := pathre.Parse(e.String())
		if err != nil {
			t.Fatalf("rendering %q of %q does not re-parse: %v", e, src, err)
		}
		if !again.Equal(e) {
			t.Fatalf("round trip changed %q to %q", e, again)
		}
	})
}

func FuzzConstraintParse(f *testing.F) {
	for _, seed := range []string{
		"a.x -> a", "a[x,y] -> a", "a.x ⊆ b.y", "ctx(a.x -> a)",
		"r._*.a.x -> r._*.a", "->", "a[x -> a", "ctx(a.x ⊆ b.y)",
		"a.x <= b.y", "country.name → country", "(((", "a.b.c.d.e -> a.b.c.d",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := constraint.Parse(src)
		if err != nil {
			return
		}
		again, err := constraint.Parse(c.String())
		if err != nil {
			t.Fatalf("rendering %q of %q does not re-parse: %v", c, src, err)
		}
		if again.String() != c.String() {
			t.Fatalf("round trip changed %q to %q", c, again)
		}
	})
}

func FuzzDTDParse(f *testing.F) {
	for _, seed := range []string{
		"<!ELEMENT a EMPTY>",
		"<!ELEMENT a (b)><!ELEMENT b EMPTY>",
		"<!ELEMENT a (b*)><!ELEMENT b (#PCDATA)><!ATTLIST b x CDATA #REQUIRED>",
		"<!-- comment --><!ELEMENT a EMPTY>",
		"<!ELEMENT", "<!FOO >", "<!ELEMENT a (a)>", "garbage",
		"<!ELEMENT a (b,>", "<!ATTLIST a x>",
		// ATTLIST definitions with quoted, enumerated and #FIXED parts.
		`<!ELEMENT a EMPTY><!ATTLIST a x CDATA #FIXED "v">`,
		`<!ELEMENT a EMPTY><!ATTLIST a x (p|q) "p">`,
		`<!ELEMENT a EMPTY><!ATTLIST a x CDATA "two words">`,
		`<!ELEMENT a EMPTY><!ATTLIST a x CDATA ">" y CDATA #REQUIRED>`,
		`<!ELEMENT a EMPTY><!ATTLIST a x NOTATION (n|m) 'n' y CDATA "open>`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d, err := dtd.Parse(src)
		if err != nil {
			return
		}
		// Valid DTDs must render and re-parse to the same shape.
		d2, err := dtd.Parse(d.String())
		if err != nil {
			t.Fatalf("rendering does not re-parse: %v\n%s", err, d.String())
		}
		if d2.Root != d.Root || len(d2.Names) != len(d.Names) {
			t.Fatalf("round trip changed shape")
		}
	})
}

func FuzzXMLDocumentParse(f *testing.F) {
	for _, seed := range []string{
		"<a/>", "<a><b x='1'/>text</a>", "<a>", "</a>", "<a/><b/>",
		`<a x="&amp;"/>`, "<a><![CDATA[x]]></a>", "\x00", "<a></b>",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tree, err := xmltree.ParseDocumentString(src)
		if err != nil {
			return
		}
		// Anything that parses must serialize and re-parse with the
		// same element count.
		again, err := xmltree.ParseDocumentString(tree.XML())
		if err != nil {
			t.Fatalf("serialization does not re-parse: %v\n%s", err, tree.XML())
		}
		if again.Size() != tree.Size() {
			t.Fatalf("round trip changed size %d -> %d", tree.Size(), again.Size())
		}
	})
}

func FuzzSpecParse(f *testing.F) {
	f.Add("<!ELEMENT a EMPTY>", "")
	f.Add("<!ELEMENT a (b)><!ELEMENT b EMPTY><!ATTLIST b x CDATA #REQUIRED>", "b.x -> b")
	f.Add("<!ELEMENT a EMPTY>", "zz.q -> zz")
	f.Fuzz(func(t *testing.T, dtdSrc, consSrc string) {
		spec, err := Parse(dtdSrc, consSrc)
		if err != nil {
			return
		}
		// Whatever parses must be checkable without panicking; budget
		// tightly so adversarial inputs cannot stall the fuzzer.
		_, _ = spec.Consistent(&Options{SkipWitness: true, MaxSolverNodes: 2000, SearchNodes: 3})
	})
}

func FuzzSpecLint(f *testing.F) {
	f.Add("<!ELEMENT a EMPTY>", "")
	f.Add("<!ELEMENT r (s, s, t?)><!ELEMENT s EMPTY><!ELEMENT t EMPTY>"+
		"<!ATTLIST s k CDATA #REQUIRED><!ATTLIST t k CDATA #REQUIRED>",
		"s.k -> s\nt.k -> t\ns.k <= t.k")
	f.Add("<!ELEMENT a (b)><!ELEMENT b (b)>", "zz.q -> zz\nb.x -> b")
	f.Add("<!ELEMENT a (b|c)><!ELEMENT b EMPTY><!ELEMENT c (c)>", "a(b.x -> b)")
	f.Fuzz(func(t *testing.T, dtdSrc, consSrc string) {
		// The linter must accept anything the parsers accept — even
		// constraint sets that fail validation — and never panic.
		d, err := dtd.Parse(dtdSrc)
		if err != nil {
			return
		}
		set, err := constraint.ParseSet(consSrc)
		if err != nil {
			return
		}
		rep := speclint.Run(d, set, nil)
		for _, diag := range rep.Diags {
			_ = diag.String()
		}
		// Soundness: a sound error must never contradict the decision
		// procedures. Check may abstain (Unknown) but not disagree.
		if rep.SoundError() == nil {
			return
		}
		res, err := consistency.Check(d, set, consistency.Options{
			SkipLint:    true,
			SkipWitness: true,
			ILP:         ilp.Options{MaxNodes: 2000},
		})
		if err != nil || res.Verdict == consistency.Unknown {
			return
		}
		if res.Verdict == consistency.Consistent {
			t.Fatalf("sound lint error on a consistent spec\nDTD:\n%s\nΣ:\n%s", dtdSrc, consSrc)
		}
	})
}

package dtd_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/experiments"
	"repro/internal/fuzzcorpus"
)

// dtdSources returns DTDs in surface syntax: the testdata
// specifications and the paper's families, then the DTD arguments of
// the committed FuzzDTDParse, FuzzSpecParse and FuzzSpecLint corpora.
func dtdSources(t *testing.T) (specs, corpus []string) {
	t.Helper()
	var out []string
	files, err := filepath.Glob("../../testdata/*.dtd")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	for _, in := range experiments.Samples(rand.New(rand.NewSource(1))) {
		out = append(out, in.D.String())
	}
	for _, target := range []string{"FuzzDTDParse", "FuzzSpecParse", "FuzzSpecLint"} {
		files, err := fuzzcorpus.Load("../../testdata/fuzz/" + target)
		if err != nil {
			t.Fatal(err)
		}
		for _, args := range files {
			corpus = append(corpus, args[0])
		}
	}
	return out, corpus
}

// dtdTokens are the edits the differential test splices into its
// sources.
var dtdTokens = []string{
	"<!ELEMENT ", "<!ATTLIST ", "<!", ">", "<!-- c -->", "<!--", " ", "\n", " ",
	"(", ")", "|", ",", "*", "+", "?", "EMPTY", "#PCDATA", "a", "b", "x", "CDATA",
	"ID", "#REQUIRED", "#IMPLIED", "#FIXED", "NOTATION", `"`, "'", `"v w"`, "'>'",
	"(p|q)", "\xff", "ü", "\r", "\v", "\f", "\u0085", "\u00a0", "\u2028",
}

// attlistFixApplies reports whether src has an ATTLIST declaration —
// delimited as the reference parser delimits it, at its first '>' —
// that holds a quote, a parenthesis, #FIXED or NOTATION: the forms the
// reference parser tokenized on white space, which is the one
// behaviour ParseWithRoot changes.
func attlistFixApplies(src string) bool {
	for rest := src; ; {
		i := strings.Index(rest, "ATTLIST")
		if i < 0 {
			return false
		}
		rest = rest[i:]
		decl := rest
		if end := strings.IndexByte(rest, '>'); end >= 0 {
			decl = rest[:end]
		}
		if strings.ContainsAny(decl, `"'(`) || strings.Contains(decl, "#FIXED") || strings.Contains(decl, "NOTATION") {
			return true
		}
		rest = rest[len("ATTLIST"):]
	}
}

// TestParseMatchesReference pins ParseWithRoot to the parser it
// replaced: on every source and seeded mutation, both accept with
// equal DTDs or reject with equal errors — except where the ATTLIST
// fix applies, and except which of several undeclared ATTLIST elements
// an error names (the reference picked one in map order).
func TestParseMatchesReference(t *testing.T) {
	specs, corpus := dtdSources(t)
	srcs := append(append(specs, corpus...), fuzzcorpus.Mutate(rand.New(rand.NewSource(2)), specs, dtdTokens, 20000)...)
	fixed, accepted := 0, 0
	for _, src := range srcs {
		for _, root := range []string{"", "a"} {
			got, gerr := dtd.ParseWithRoot(src, root)
			if attlistFixApplies(src) {
				fixed++
				continue
			}
			want, werr := dtd.RefParseWithRoot(src, root)
			const undeclared = "> for undeclared element"
			switch {
			case gerr != nil && werr != nil && strings.HasSuffix(gerr.Error(), undeclared) && strings.HasSuffix(werr.Error(), undeclared):
			case gerr != nil || werr != nil:
				if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
					t.Fatalf("ParseWithRoot(%q, %q): error %v, reference %v", src, root, gerr, werr)
				}
			case !reflect.DeepEqual(got, want):
				t.Fatalf("ParseWithRoot(%q, %q) = %+v, reference %+v", src, root, got, want)
			default:
				accepted++
			}
		}
	}
	t.Logf("%d sources: %d equal DTDs, %d parses left to the ATTLIST pins", len(srcs), accepted, fixed)
}

// TestParseAttlistDefinitions pins ATTLIST parsing per XML's AttDef
// rule: each definition is a name, a type and a default, with quoted
// literals read whole. The reference parser split on white space and
// cut at the first '>', so it declared the extra attributes noted.
func TestParseAttlistDefinitions(t *testing.T) {
	for _, tc := range []struct {
		attlist string
		want    []string
	}{
		// Reference: an extra attribute `"v"`.
		{`x CDATA #FIXED "v"`, []string{"x"}},
		// Reference: an extra attribute `(p|q)`.
		{`x (p|q) "p"`, []string{"x"}},
		// Reference: an extra attribute `words"`.
		{`x CDATA "two words"`, []string{"x"}},
		// Reference: the declaration ends inside the literal.
		{`x CDATA ">" y CDATA #REQUIRED`, []string{"x", "y"}},
		{`x CDATA '>' y CDATA #IMPLIED`, []string{"x", "y"}},
		{`x ( p | q ) #REQUIRED y NOTATION (n|m) #IMPLIED`, []string{"x", "y"}},
		{`y ID #REQUIRED x IDREF #FIXED "it's"`, []string{"x", "y"}},
		{"x\tCDATA\n#REQUIRED", []string{"x"}},
		// Types and defaults may be left out, as before.
		{`y x #IMPLIED`, []string{"x", "y"}},
		{`x x CDATA #REQUIRED`, []string{"x"}},
	} {
		src := "<!ELEMENT a EMPTY><!ATTLIST a " + tc.attlist + ">"
		d, err := dtd.Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if got := d.Attrs("a"); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Parse(%q): attributes %q, want %q", src, got, tc.want)
		}
	}
	for _, src := range []string{
		`<!ELEMENT a EMPTY><!ATTLIST a x CDATA "open>`,
		`<!ELEMENT a EMPTY><!ATTLIST a x (p|q>`,
		`<!ELEMENT a EMPTY><!ATTLIST a x CDATA #FIXED 'v' y`,
	} {
		if _, err := dtd.Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted an unterminated ATTLIST", src)
		}
	}
}

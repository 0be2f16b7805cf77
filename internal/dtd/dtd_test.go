package dtd

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/contentmodel"
)

// schoolDTD is the DTD of Figure 1(a) of the paper.
const schoolDTD = `
<!-- School DTD from Section 1 of the paper -->
<!ELEMENT r        (students, courses, faculty, labs)>
<!ELEMENT students (student+)>
<!ELEMENT courses  (cs340, cs108, cs434)>
<!ELEMENT faculty  (prof+)>
<!ELEMENT labs     (dbLab, pcLab)>
<!ELEMENT student  (record)>
<!ELEMENT prof     (record)>
<!ELEMENT cs434    (takenBy+)>
<!ELEMENT cs340    (takenBy+)>
<!ELEMENT cs108    (takenBy+)>
<!ELEMENT dbLab    (acc+)>
<!ELEMENT pcLab    (acc+)>
<!ELEMENT record   EMPTY>
<!ELEMENT takenBy  EMPTY>
<!ELEMENT acc      EMPTY>
<!ATTLIST record  id  CDATA #REQUIRED>
<!ATTLIST takenBy sid CDATA #REQUIRED>
<!ATTLIST acc     num CDATA #REQUIRED>
`

func TestParseSchoolDTD(t *testing.T) {
	d, err := Parse(schoolDTD)
	if err != nil {
		t.Fatal(err)
	}
	if d.Root != "r" {
		t.Errorf("root = %q, want r", d.Root)
	}
	if got := len(d.Names); got != 15 {
		t.Errorf("len(Names) = %d, want 15", got)
	}
	if !d.Element("record").HasAttr("id") || d.Element("record").HasAttr("sid") {
		t.Error("record attributes wrong")
	}
	if d.IsRecursive() {
		t.Error("school DTD reported recursive")
	}
	if d.NoStar() {
		t.Error("school DTD uses + (star); NoStar must be false")
	}
	if got := d.Depth(); got != 4 {
		t.Errorf("Depth = %d, want 4 (r.labs.dbLab.acc)", got)
	}
	if !d.Satisfiable() {
		t.Error("school DTD must be satisfiable")
	}
}

func TestParseRoundTrip(t *testing.T) {
	d := MustParse(schoolDTD)
	d2, err := Parse(d.String())
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, d.String())
	}
	if d2.Root != d.Root || len(d2.Names) != len(d.Names) {
		t.Fatal("round trip changed shape")
	}
	for _, name := range d.Names {
		if !d.Elements[name].Content.Equal(d2.Elements[name].Content) {
			t.Errorf("content model of %q changed: %q vs %q", name, d.Elements[name].Content, d2.Elements[name].Content)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                                     // no declarations
		"<!ELEMENT a (b)>",                     // undefined reference
		"<!ELEMENT a (a)>",                     // root occurs in a content model
		"<!ELEMENT a EMPTY><!ELEMENT b EMPTY>", // b unconnected
		"<!ELEMENT a EMPTY><!ATTLIST b x CDATA #REQUIRED>", // attlist for undeclared
		"<!ELEMENT a EMPTY><!ELEMENT a EMPTY>",             // duplicate
		"<!FOO a>",                                         // unsupported decl
		"<!ELEMENT a (b,>",                                 // bad content model (b undefined anyway)
		"garbage",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestRecursionAndSatisfiability(t *testing.T) {
	// part is recursive but optional: satisfiable.
	ok := MustParse(`
<!ELEMENT doc (part)>
<!ELEMENT part (leaf | (part, part))>
<!ELEMENT leaf EMPTY>
`)
	if !ok.IsRecursive() {
		t.Error("doc/part DTD must be recursive")
	}
	if !ok.Satisfiable() {
		t.Error("doc/part DTD must be satisfiable")
	}
	// Mandatory recursion: unsatisfiable.
	bad := MustParse(`
<!ELEMENT doc (part)>
<!ELEMENT part (part)>
`)
	if !bad.IsRecursive() || bad.Satisfiable() {
		t.Error("mandatory recursion must be recursive and unsatisfiable")
	}
	prod := bad.Productive()
	if prod["part"] || prod["doc"] {
		t.Error("neither doc nor part is productive")
	}
	// Star-guarded recursion: satisfiable.
	starry := MustParse(`
<!ELEMENT doc (part*)>
<!ELEMENT part (part*)>
`)
	if !starry.Satisfiable() {
		t.Error("star recursion must be satisfiable")
	}
}

func TestDepthAndPaths(t *testing.T) {
	d := MustParse(`
<!ELEMENT db (country)>
<!ELEMENT country (province, capital)>
<!ELEMENT province (capital, city)>
<!ELEMENT capital EMPTY>
<!ELEMENT city EMPTY>
`)
	if got := d.Depth(); got != 4 {
		t.Errorf("Depth = %d, want 4", got)
	}
	var paths []string
	d.Paths(func(p []string) bool {
		paths = append(paths, strings.Join(p, "."))
		return true
	})
	want := []string{
		"db",
		"db.country",
		"db.country.capital",
		"db.country.province",
		"db.country.province.capital",
		"db.country.province.city",
	}
	if len(paths) != len(want) {
		t.Fatalf("Paths = %v, want %v", paths, want)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Errorf("path[%d] = %q, want %q", i, paths[i], want[i])
		}
	}
	if got := d.PathCount(0); got != 6 {
		t.Errorf("PathCount = %d, want 6", got)
	}
	if got := d.PathCount(3); got != 3 {
		t.Errorf("PathCount(limit 3) = %d, want 3", got)
	}
	if !d.Below("db")["city"] || d.Below("city")["db"] || d.Below("capital")["city"] {
		t.Error("Below misreports")
	}
}

func TestNoStar(t *testing.T) {
	if !MustParse("<!ELEMENT a (b, b)><!ELEMENT b EMPTY>").NoStar() {
		t.Error("star-free DTD reported starred")
	}
	if MustParse("<!ELEMENT a (b*)><!ELEMENT b EMPTY>").NoStar() {
		t.Error("starred DTD reported no-star")
	}
	if MustParse("<!ELEMENT a (b+)><!ELEMENT b EMPTY>").NoStar() {
		t.Error("b+ must count as starred")
	}
}

func TestNarrowShapes(t *testing.T) {
	d := MustParse(`
<!ELEMENT r (a, (b | c)*, #PCDATA)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ELEMENT c EMPTY>
`)
	n := Narrow(d)
	if got := n.Name(n.Root); got != "r" {
		t.Fatalf("narrowed root = %q", got)
	}
	// Every rule must have one of the six legal shapes with operands
	// that are defined symbols; original types may appear only in
	// RuleRef targets.
	refParents := map[string]int{}
	for sym, r := range n.Rules {
		checkOperand := func(op int, refAllowed bool) {
			if op < 0 || op >= n.NumSymbols() {
				t.Fatalf("rule of %q references undefined symbol %d", n.Name(sym), op)
			}
			if !refAllowed && n.IsOriginal(op) {
				t.Errorf("rule of %q uses original type %q outside RuleRef", n.Name(sym), n.Name(op))
			}
		}
		switch r.Kind {
		case RuleEmpty, RuleText:
		case RuleRef:
			checkOperand(r.A, true)
			if !n.IsOriginal(r.A) {
				t.Errorf("RuleRef target %q of %q is not an original type", n.Name(r.A), n.Name(sym))
			}
			refParents[n.Name(r.A)]++
		case RuleStar:
			checkOperand(r.A, false)
		case RuleSeq, RuleChoice:
			checkOperand(r.A, false)
			checkOperand(r.B, false)
		default:
			t.Fatalf("rule of %q has unknown kind %d", n.Name(sym), r.Kind)
		}
	}
	// The RuleRef parents of a, b, c must cover exactly the reference
	// sites.
	for _, typ := range []string{"a", "b", "c"} {
		if refParents[typ] != 1 {
			t.Errorf("%s has %d RuleRef parents, want exactly 1", typ, refParents[typ])
		}
	}
	// Nonterminals are named owner#k in creation order.
	want := "r -> r#1, r#2\na -> EMPTY\nb -> EMPTY\nc -> EMPTY\nr#1 -> a\nr#2 -> r#3, r#7\n" +
		"r#3 -> r#4*\nr#4 -> r#5 | r#6\nr#5 -> b\nr#6 -> c\nr#7 -> #PCDATA\n"
	if s := n.String(); s != want {
		t.Errorf("String() =\n%s\nwant\n%s", s, want)
	}
	for sym := 0; sym < n.NumSymbols(); sym++ {
		if n.IsOriginal(sym) != (n.Owner[sym] == sym) {
			t.Errorf("%s: IsOriginal disagrees with Owner", n.Name(sym))
		}
		if id, ok := n.ID(n.Name(sym)); ok != n.IsOriginal(sym) || ok && id != sym {
			t.Errorf("ID(%s) = %d, %v", n.Name(sym), id, ok)
		}
	}
}

// TestNarrowPreservesLanguage checks, via sampling, that the narrowed
// grammar derives exactly the child words of the original content
// models: every sampled word of P(τ) must be derivable from τ in the
// narrowed grammar, and vice versa.
func TestNarrowPreservesLanguage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		d := Random(rng, RandomOptions{
			Types: 4, MaxAttrs: 0, MaxExprSize: 8, AllowStar: true, AllowText: true,
		})
		n := Narrow(d)
		for id, name := range d.Names {
			e := d.Elements[name].Content
			for i := 0; i < 20; i++ {
				w := e.Sample(rng, contentmodel.SampleOptions{StarMax: 3})
				if !deriveWord(n, id, w) {
					t.Fatalf("narrowed grammar of %q cannot derive sampled word %v\nDTD:\n%s\nGrammar:\n%s",
						name, w, d, n)
				}
			}
			for i := 0; i < 20; i++ {
				w := sampleNarrow(n, id, rng, 40)
				if w == nil {
					continue
				}
				if !e.Match(w) {
					t.Fatalf("original %q rejects word %v derived by narrowed grammar", name, w)
				}
			}
		}
	}
}

// deriveWord reports whether the narrowed grammar can derive word w
// from the production of symbol sym (treating RuleRef and RuleText as
// terminals emitting one symbol).
func deriveWord(n *Narrowed, sym int, w []string) bool {
	type key struct{ sym, i, j int }
	memo := map[key]bool{}
	var derives func(sym int, i, j int) bool
	derives = func(sym int, i, j int) bool {
		k := key{sym, i, j}
		if v, ok := memo[k]; ok {
			return v
		}
		memo[k] = false // cut recursion (star rules can loop on ε)
		r := n.Rules[sym]
		var res bool
		switch r.Kind {
		case RuleEmpty:
			res = i == j
		case RuleText:
			res = j == i+1 && w[i] == contentmodel.TextSymbol
		case RuleRef:
			res = j == i+1 && w[i] == n.Name(r.A)
		case RuleSeq:
			for m := i; m <= j && !res; m++ {
				res = derives(r.A, i, m) && derives(r.B, m, j)
			}
		case RuleChoice:
			res = derives(r.A, i, j) || derives(r.B, i, j)
		case RuleStar:
			if i == j {
				res = true
			}
			for m := i + 1; m <= j && !res; m++ {
				res = derives(r.A, i, m) && derives(sym, m, j)
			}
		}
		memo[k] = res
		return res
	}
	return derives(sym, 0, len(w))
}

// sampleNarrow samples a random word derived from sym in the narrowed
// grammar, or nil if the budget is exhausted.
func sampleNarrow(n *Narrowed, sym int, rng *rand.Rand, budget int) []string {
	var out []string
	var walk func(sym int) bool
	walk = func(sym int) bool {
		if budget--; budget < 0 {
			return false
		}
		r := n.Rules[sym]
		switch r.Kind {
		case RuleEmpty:
		case RuleText:
			out = append(out, contentmodel.TextSymbol)
		case RuleRef:
			out = append(out, n.Name(r.A))
		case RuleSeq:
			return walk(r.A) && walk(r.B)
		case RuleChoice:
			if rng.Intn(2) == 0 {
				return walk(r.A)
			}
			return walk(r.B)
		case RuleStar:
			for k := rng.Intn(3); k > 0; k-- {
				if !walk(r.A) {
					return false
				}
			}
		}
		return true
	}
	if !walk(sym) {
		return nil
	}
	return out
}

func TestRandomDTDsValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		opts := RandomOptions{
			Types:          1 + rng.Intn(6),
			MaxAttrs:       rng.Intn(3),
			MaxExprSize:    1 + rng.Intn(10),
			AllowStar:      rng.Intn(2) == 0,
			AllowRecursion: rng.Intn(2) == 0,
			AllowText:      rng.Intn(2) == 0,
		}
		d := Random(rng, opts)
		if err := d.Validate(); err != nil {
			t.Fatalf("random DTD invalid: %v\n%s", err, d)
		}
		if !opts.AllowRecursion {
			if d.IsRecursive() {
				t.Fatalf("non-recursive mode produced recursion:\n%s", d)
			}
			if !d.Satisfiable() {
				t.Fatalf("non-recursive DTD must be satisfiable:\n%s", d)
			}
		}
		if !opts.AllowStar && !d.NoStar() {
			t.Fatalf("no-star mode produced a star:\n%s", d)
		}
		// Round-trip through the surface syntax.
		if _, err := Parse(d.String()); err != nil {
			t.Fatalf("random DTD does not reparse: %v\n%s", err, d)
		}
	}
}

func TestCloneAndSize(t *testing.T) {
	d := MustParse(schoolDTD)
	c := d.Clone()
	if c.Size() != d.Size() {
		t.Error("clone size differs")
	}
	c.Define("students", contentmodel.Eps())
	if d.Elements["students"].Content.Kind == contentmodel.Empty {
		t.Error("clone aliases original")
	}
	if d.Size() <= 0 {
		t.Error("size must be positive")
	}
}

func TestDefineDedupsAttrs(t *testing.T) {
	d := New("a")
	d.Define("a", contentmodel.Eps(), "z", "b", "z", "a")
	got := d.Attrs("a")
	want := []string{"a", "b", "z"}
	if len(got) != len(want) {
		t.Fatalf("attrs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("attrs = %v, want %v", got, want)
		}
	}
}

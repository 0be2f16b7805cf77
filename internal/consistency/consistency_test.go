package consistency

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/ilp"
)

// ilpOptions returns solver options with the given node budget.
func ilpOptions(maxNodes int) ilp.Options { return ilp.Options{MaxNodes: maxNodes} }

func check(t *testing.T, dtdSrc, cSrc string, opts Options) Result {
	t.Helper()
	d := dtd.MustParse(dtdSrc)
	set := constraint.MustParseSet(cSrc)
	res, err := Check(d, set, opts)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if res.Verdict == Consistent && res.Witness != nil {
		if !res.WitnessVerified {
			t.Fatalf("witness attached but not verified")
		}
		if err := res.Witness.Conforms(d); err != nil {
			t.Fatalf("witness conformance: %v", err)
		}
		if vs := constraint.Check(res.Witness, set); len(vs) != 0 {
			t.Fatalf("witness violations: %v", vs)
		}
	}
	return res
}

// The geography specification of Section 1 / Figure 1(b): subtly
// inconsistent — capitals outnumber provinces.
const geoDTD = `
<!ELEMENT db (country+)>
<!ELEMENT country (province+, capital+)>
<!ELEMENT province (capital, city*)>
<!ELEMENT capital EMPTY>
<!ELEMENT city EMPTY>
<!ATTLIST country name CDATA #REQUIRED>
<!ATTLIST province name CDATA #REQUIRED>
<!ATTLIST capital inProvince CDATA #REQUIRED>
`

const geoConstraints = `
country.name -> country
country(province.name -> province)
country(capital.inProvince -> capital)
country(capital.inProvince ⊆ province.name)
`

func TestGeographyInconsistent(t *testing.T) {
	// The default path short-circuits in the speclint prepass: the
	// cardinality clash of Figure 1(b) is exactly rule SL201.
	res := check(t, geoDTD, geoConstraints, Options{})
	if res.Verdict != Inconsistent {
		t.Fatalf("geography verdict = %v (%s), want inconsistent", res.Verdict, res.Diagnosis)
	}
	if !strings.Contains(res.Method, "speclint prepass (SL201)") {
		t.Errorf("method = %q, want speclint prepass (SL201)", res.Method)
	}
	if res.Class != "RC_{K,FK}" {
		t.Errorf("class = %q", res.Class)
	}

	// With the prepass disabled the hierarchical decomposition must
	// reach the same verdict on its own.
	res = check(t, geoDTD, geoConstraints, Options{SkipLint: true})
	if res.Verdict != Inconsistent {
		t.Fatalf("SkipLint verdict = %v (%s), want inconsistent", res.Verdict, res.Diagnosis)
	}
	if !strings.Contains(res.Method, "hierarchical") {
		t.Errorf("SkipLint method = %q, want hierarchical decomposition", res.Method)
	}
}

func TestGeographyConsistentWithoutInclusion(t *testing.T) {
	// Dropping the foreign key removes the counting conflict.
	res := check(t, geoDTD, `
country.name -> country
country(province.name -> province)
country(capital.inProvince -> capital)
`, Options{})
	if res.Verdict != Consistent {
		t.Fatalf("verdict = %v (%s), want consistent", res.Verdict, res.Diagnosis)
	}
	if res.Witness == nil {
		t.Fatalf("no witness attached: %s", res.Diagnosis)
	}
}

// The library schema of Figure 2(a): hierarchical and consistent.
const libraryDTD = `
<!ELEMENT library (book+)>
<!ELEMENT book (author+, chapter+)>
<!ELEMENT author EMPTY>
<!ELEMENT chapter (section*)>
<!ELEMENT section EMPTY>
<!ATTLIST book isbn CDATA #REQUIRED>
<!ATTLIST author name CDATA #REQUIRED>
<!ATTLIST chapter number CDATA #REQUIRED>
<!ATTLIST section title CDATA #REQUIRED>
`

const libraryConstraints = `
library(book.isbn -> book)
book(author.name -> author)
book(chapter.number -> chapter)
chapter(section.title -> section)
`

func TestLibraryHierarchicalConsistent(t *testing.T) {
	d := dtd.MustParse(libraryDTD)
	set := constraint.MustParseSet(libraryConstraints)
	if !Hierarchical(d, set) {
		t.Fatal("Figure 2(a) must be hierarchical")
	}
	res := check(t, libraryDTD, libraryConstraints, Options{})
	if res.Verdict != Consistent {
		t.Fatalf("library verdict = %v (%s), want consistent", res.Verdict, res.Diagnosis)
	}
	if res.Witness == nil {
		t.Fatalf("no witness: %s", res.Diagnosis)
	}
	if res.Stats.Scopes < 3 {
		t.Errorf("scopes = %d, want ≥ 3 (library, book, chapter)", res.Stats.Scopes)
	}
}

// The library schema of Figure 2(b): author_info makes (library, book)
// a conflicting pair.
const library2DTD = `
<!ELEMENT library (book+, author_info+)>
<!ELEMENT book (author+, chapter+)>
<!ELEMENT author EMPTY>
<!ELEMENT chapter (section*)>
<!ELEMENT section EMPTY>
<!ELEMENT author_info EMPTY>
<!ATTLIST book isbn CDATA #REQUIRED>
<!ATTLIST author name CDATA #REQUIRED>
<!ATTLIST chapter number CDATA #REQUIRED>
<!ATTLIST section title CDATA #REQUIRED>
<!ATTLIST author_info name CDATA #REQUIRED>
`

const library2Constraints = libraryConstraints + `
library(author_info.name -> author_info)
library(author.name ⊆ author_info.name)
`

func TestLibraryConflictingPair(t *testing.T) {
	d := dtd.MustParse(library2DTD)
	set := constraint.MustParseSet(library2Constraints)
	pairs := ConflictingPairs(d, set)
	if len(pairs) == 0 {
		t.Fatal("Figure 2(b) must have a conflicting pair")
	}
	found := false
	for _, p := range pairs {
		if p.Outer == "library" && p.Inner == "book" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected (library, book) among %v", pairs)
	}
	if Hierarchical(d, set) {
		t.Fatal("Figure 2(b) must not be hierarchical")
	}
	// The specification is nevertheless consistent; the bounded search
	// must find a small witness.
	res := check(t, library2DTD, library2Constraints, Options{
		BruteForce: bruteforce.Options{MaxNodes: 7},
	})
	if res.Verdict != Consistent {
		t.Fatalf("verdict = %v (%s), want consistent via bounded search", res.Verdict, res.Diagnosis)
	}
	if !strings.Contains(res.Method, "undecidable") {
		t.Errorf("method = %q", res.Method)
	}
}

func TestKeysOnlyFastPath(t *testing.T) {
	res := check(t, `
<!ELEMENT db (a+)>
<!ELEMENT a EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
`, "a.x -> a", Options{})
	if res.Verdict != Consistent {
		t.Fatalf("verdict = %v, want consistent", res.Verdict)
	}
	if !strings.Contains(res.Method, "keys-only") {
		t.Errorf("method = %q, want keys-only fast path", res.Method)
	}
	if res.Witness == nil {
		t.Error("keys-only path should attach a witness")
	}
	// Keys-only over an unsatisfiable DTD.
	res2 := check(t, `
<!ELEMENT db (a)>
<!ELEMENT a (a)>
<!ATTLIST a x CDATA #REQUIRED>
`, "a.x -> a", Options{})
	if res2.Verdict != Inconsistent {
		t.Fatalf("verdict = %v, want inconsistent (DTD unsatisfiable)", res2.Verdict)
	}
}

func TestAbsoluteDispatch(t *testing.T) {
	// The unary AC case must go through the cardinality encoding.
	res := check(t, `
<!ELEMENT db (a, a, b)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ATTLIST b y CDATA #REQUIRED>
`, `
a.x -> a
b.y -> b
a.x ⊆ b.y
`, Options{})
	if res.Verdict != Inconsistent {
		t.Fatalf("verdict = %v, want inconsistent", res.Verdict)
	}
	if res.Class != "AC_{PK,FK}" {
		t.Errorf("class = %q", res.Class)
	}
}

func TestRegularDispatch(t *testing.T) {
	res := check(t, `
<!ELEMENT r (x, y)>
<!ELEMENT x (b, b)>
<!ELEMENT y (b, b)>
<!ELEMENT b EMPTY>
<!ATTLIST b v CDATA #REQUIRED>
`, `
r.y.b.v -> r.y.b
r.x.b.v ⊆ r.y.b.v
`, Options{})
	if res.Verdict != Consistent {
		t.Fatalf("verdict = %v (%s), want consistent", res.Verdict, res.Diagnosis)
	}
	if !strings.Contains(res.Method, "state-tagged") {
		t.Errorf("method = %q", res.Method)
	}
	if res.Witness == nil {
		t.Errorf("no witness: %s", res.Diagnosis)
	}
}

func TestRelativeNestedContexts(t *testing.T) {
	// Keys of an outer context apply inside inner scopes: the outer
	// key on section titles relative to book conflicts with a DTD that
	// forces two sections per chapter and an inner inclusion capping
	// title values at one per chapter... construct: book-level key on
	// section titles, two chapters each with sections sharing a title
	// pool of size 1 via chapter-level fk into a single holder.
	res := check(t, `
<!ELEMENT library (book)>
<!ELEMENT book (chapter, chapter)>
<!ELEMENT chapter (section, section, holder)>
<!ELEMENT section EMPTY>
<!ELEMENT holder EMPTY>
<!ATTLIST section title CDATA #REQUIRED>
<!ATTLIST holder h CDATA #REQUIRED>
`, `
book(section.title -> section)
chapter(holder.h -> holder)
chapter(section.title ⊆ holder.h)
`, Options{})
	// Each chapter has 2 sections whose titles must all be ≤ 1 value
	// (⊆ single holder's h) but distinct book-wide: impossible.
	if res.Verdict != Inconsistent {
		t.Fatalf("verdict = %v (%s), want inconsistent", res.Verdict, res.Diagnosis)
	}
	// Relaxing to one section per chapter makes it consistent.
	res2 := check(t, `
<!ELEMENT library (book)>
<!ELEMENT book (chapter, chapter)>
<!ELEMENT chapter (section, holder)>
<!ELEMENT section EMPTY>
<!ELEMENT holder EMPTY>
<!ATTLIST section title CDATA #REQUIRED>
<!ATTLIST holder h CDATA #REQUIRED>
`, `
book(section.title -> section)
chapter(holder.h -> holder)
chapter(section.title ⊆ holder.h)
`, Options{})
	if res2.Verdict != Consistent {
		t.Fatalf("relaxed verdict = %v (%s), want consistent", res2.Verdict, res2.Diagnosis)
	}
	if res2.Witness == nil {
		t.Fatalf("no witness: %s", res2.Diagnosis)
	}
}

func TestRecursiveRelativeFallsBack(t *testing.T) {
	res := check(t, `
<!ELEMENT db (part)>
<!ELEMENT part ((part, part) | leaf)>
<!ELEMENT leaf EMPTY>
<!ATTLIST leaf id CDATA #REQUIRED>
`, "part(leaf.id -> leaf)", Options{
		BruteForce: bruteforce.Options{MaxNodes: 5},
	})
	if res.Verdict != Consistent {
		t.Fatalf("verdict = %v (%s), want consistent via bounded search", res.Verdict, res.Diagnosis)
	}
}

func TestDLocality(t *testing.T) {
	d := dtd.MustParse(libraryDTD)
	set := constraint.MustParseSet(libraryConstraints)
	if got := DLocality(d, set); got != 2 {
		t.Errorf("DLocality(library) = %d, want 2 (every scope is parent+child)", got)
	}
	geo := dtd.MustParse(geoDTD)
	gset := constraint.MustParseSet(geoConstraints)
	if got := DLocality(geo, gset); got != 3 {
		t.Errorf("DLocality(geo) = %d, want 3 (country scope reaches city)", got)
	}
}

func TestCountMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := dtd.MustParse(`
<!ELEMENT db (a, (a | b), b)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ATTLIST b y CDATA #REQUIRED>
`)
	sat := constraint.MustParseSet("a.x -> a\nb.y -> b\na.x ⊆ b.y")
	res, err := CountMonteCarlo(d, sat, rng, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Taking the b-branch gives 1 a and 2 b's: satisfiable counts
	// exist, so enough runs must find them.
	if !res.Consistent {
		t.Fatalf("Count failed to certify a consistent spec in %d runs", res.Runs)
	}
	// An inconsistent spec must never be certified.
	unsat := constraint.MustParseSet("a.x -> a\nb.y -> b\nb.y ⊆ a.x\na.x ⊆ b.y")
	d2 := dtd.MustParse(`
<!ELEMENT db (a, a, b)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ATTLIST b y CDATA #REQUIRED>
`)
	res2, err := CountMonteCarlo(d2, unsat, rng, 300)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Consistent {
		t.Fatal("Count certified an inconsistent spec")
	}
	// Guard rails.
	if _, err := CountMonteCarlo(dtd.MustParse(`<!ELEMENT db (a*)><!ELEMENT a EMPTY>`), sat, rng, 1); err == nil {
		t.Error("starred DTD must be rejected")
	}
	if _, err := CountMonteCarlo(dtd.MustParse(`<!ELEMENT db (a)><!ELEMENT a (a|#PCDATA)>`), sat, rng, 1); err == nil {
		t.Error("recursive DTD must be rejected")
	}
}

// TestHierarchicalAgainstBruteForce cross-validates the scope
// decomposition on random hierarchical specifications.
func TestHierarchicalAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	trials := 0
	for trials < 140 {
		d := dtd.Random(rng, dtd.RandomOptions{
			Types: 3 + rng.Intn(3), MaxAttrs: 1, MaxExprSize: 5,
			AllowStar: rng.Intn(2) == 0, AllowText: false,
		})
		set := randomRelativeSet(rng, d)
		if set.Size() == 0 || set.Validate(d) != nil || !Hierarchical(d, set) {
			continue
		}
		trials++
		res, err := Check(d, set, Options{})
		if err != nil {
			t.Fatal(err)
		}
		bf := bruteforce.Decide(d, set, bruteforce.Options{MaxNodes: 4, MaxShapes: 3000, MaxPartitions: 3000})
		switch res.Verdict {
		case Consistent:
			if res.Witness == nil {
				// Witness may exceed limits; decision still checked
				// against brute force below.
				break
			}
		case Inconsistent:
			if bf.Sat() {
				t.Fatalf("decomposition says inconsistent, brute force found witness\nDTD:\n%s\nΣ:\n%s\n%s",
					d, set, bf.Witness.XML())
			}
		case Unknown:
			t.Fatalf("unknown on small hierarchical instance\nDTD:\n%s\nΣ:\n%s", d, set)
		}
		if bf.Sat() && res.Verdict == Inconsistent {
			t.Fatalf("disagreement\nDTD:\n%s\nΣ:\n%s", d, set)
		}
		if !bf.Sat() && bf.Exhausted && res.Verdict == Consistent && res.Witness != nil &&
			res.Witness.Size() <= 4 {
			t.Fatalf("checker found a small witness brute force missed?\nDTD:\n%s\nΣ:\n%s\n%s",
				d, set, res.Witness.XML())
		}
	}
}

// randomRelativeSet draws relative keys and foreign keys with random
// context types.
func randomRelativeSet(rng *rand.Rand, d *dtd.DTD) *constraint.Set {
	type ta struct{ typ, attr string }
	var tas []ta
	for _, name := range d.Names {
		for _, a := range d.Attrs(name) {
			tas = append(tas, ta{name, a})
		}
	}
	set := &constraint.Set{}
	if len(tas) == 0 {
		return set
	}
	ctx := func() string {
		if rng.Intn(3) == 0 {
			return "" // absolute
		}
		return d.Names[rng.Intn(len(d.Names))]
	}
	for i := 1 + rng.Intn(2); i > 0; i-- {
		x := tas[rng.Intn(len(tas))]
		set.AddKey(constraint.Key{Context: ctx(), Target: constraint.Target{Type: x.typ, Attrs: []string{x.attr}}})
	}
	for i := rng.Intn(2); i > 0; i-- {
		from := tas[rng.Intn(len(tas))]
		to := tas[rng.Intn(len(tas))]
		set.AddForeignKey(constraint.Inclusion{
			Context: ctx(),
			From:    constraint.Target{Type: from.typ, Attrs: []string{from.attr}},
			To:      constraint.Target{Type: to.typ, Attrs: []string{to.attr}},
		})
	}
	return set
}

func TestHierarchicalUndecidedExit(t *testing.T) {
	// With a one-node solver budget, the exit scope (which needs a
	// choice branch) comes back Unknown; the root scope would place
	// the exit, the retry with the exit banned conflicts with the
	// mandatory child, and the overall verdict honestly degrades to
	// Unknown instead of an unproven Consistent.
	d := dtd.MustParse(`
<!ELEMENT r (c)>
<!ELEMENT c (a | b)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
`)
	set := constraint.MustParseSet("c(a.x -> a)")
	res, err := Check(d, set, Options{SkipWitness: true, ILP: ilpOptions(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Unknown {
		t.Fatalf("verdict = %v, want unknown under a 1-node budget", res.Verdict)
	}
	// With a sane budget the same spec is consistent.
	res2, err := Check(d, set, Options{SkipWitness: true})
	if err != nil || res2.Verdict != Consistent {
		t.Fatalf("verdict = %v (%v), want consistent", res2.Verdict, err)
	}
}

func TestDisjointMultiAttributeKeys(t *testing.T) {
	// Two multi-attribute keys on the same type with DISJOINT
	// attribute sets stay exact (Corollary 3.3).
	res := check(t, `
<!ELEMENT db (p, p, p, p, p, u, u, v, v)>
<!ELEMENT p EMPTY>
<!ELEMENT u EMPTY>
<!ELEMENT v EMPTY>
<!ATTLIST p a CDATA #REQUIRED b CDATA #REQUIRED c CDATA #REQUIRED d CDATA #REQUIRED>
<!ATTLIST u w CDATA #REQUIRED>
<!ATTLIST v w CDATA #REQUIRED>
`, `
p[a,b] -> p
p[c,d] -> p
u.w -> u
v.w -> v
p.a ⊆ u.w
p.b ⊆ u.w
p.c ⊆ v.w
p.d ⊆ v.w
`, Options{})
	// 5 p's need 5 distinct (a,b) pairs over ≤2×2 values: impossible.
	if res.Verdict != Inconsistent {
		t.Fatalf("verdict = %v, want inconsistent (5 > 2·2 on both keys)", res.Verdict)
	}
	// With 4 p's both disjoint keys fit (4 = 2·2) and the witness must
	// satisfy both simultaneously.
	res2 := check(t, `
<!ELEMENT db (p, p, p, p, u, u, v, v)>
<!ELEMENT p EMPTY>
<!ELEMENT u EMPTY>
<!ELEMENT v EMPTY>
<!ATTLIST p a CDATA #REQUIRED b CDATA #REQUIRED c CDATA #REQUIRED d CDATA #REQUIRED>
<!ATTLIST u w CDATA #REQUIRED>
<!ATTLIST v w CDATA #REQUIRED>
`, `
p[a,b] -> p
p[c,d] -> p
u.w -> u
v.w -> v
p.a ⊆ u.w
p.b ⊆ u.w
p.c ⊆ v.w
p.d ⊆ v.w
`, Options{})
	if res2.Verdict != Consistent {
		t.Fatalf("verdict = %v (%s), want consistent", res2.Verdict, res2.Diagnosis)
	}
	if res2.Witness == nil {
		t.Fatalf("no witness: %s", res2.Diagnosis)
	}
}

func TestMinimizeWitnessHierarchical(t *testing.T) {
	// Per-scope minimization shrinks hierarchical witnesses too: book+
	// and author+ stars collapse to singletons.
	res := check(t, `
<!ELEMENT library (book+)>
<!ELEMENT book (author+)>
<!ELEMENT author EMPTY>
<!ATTLIST book isbn CDATA #REQUIRED>
<!ATTLIST author name CDATA #REQUIRED>
`, `
library(book.isbn -> book)
book(author.name -> author)
`, Options{MinimizeWitness: true})
	if res.Verdict != Consistent || res.Witness == nil {
		t.Fatalf("%v (%s)", res.Verdict, res.Diagnosis)
	}
	if got := res.Witness.Size(); got != 3 {
		t.Fatalf("minimized hierarchical witness has %d elements, want 3:\n%s", got, res.Witness.XML())
	}
}

func TestTractableExactAgainstEncoder(t *testing.T) {
	// On random no-star non-recursive specs the derandomized Theorem
	// 3.5(b) procedure must agree with the exact encoding.
	rng := rand.New(rand.NewSource(8))
	trials := 0
	for trials < 120 {
		d := dtd.Random(rng, dtd.RandomOptions{
			Types: 2 + rng.Intn(4), MaxAttrs: 2, MaxExprSize: 6,
			AllowStar: false, AllowText: false,
		})
		set := &constraint.Set{}
		type ta struct{ typ, attr string }
		var tas []ta
		for _, name := range d.Names {
			for _, a := range d.Attrs(name) {
				tas = append(tas, ta{name, a})
			}
		}
		if len(tas) == 0 {
			continue
		}
		for i := 1 + rng.Intn(2); i > 0; i-- {
			x := tas[rng.Intn(len(tas))]
			set.AddKey(constraint.Key{Target: constraint.Target{Type: x.typ, Attrs: []string{x.attr}}})
		}
		for i := rng.Intn(2); i > 0; i-- {
			f, to := tas[rng.Intn(len(tas))], tas[rng.Intn(len(tas))]
			set.AddForeignKey(constraint.Inclusion{
				From: constraint.Target{Type: f.typ, Attrs: []string{f.attr}},
				To:   constraint.Target{Type: to.typ, Attrs: []string{to.attr}},
			})
		}
		if set.Validate(d) != nil {
			continue
		}
		trials++
		got, err := TractableExact(d, set)
		if err != nil {
			t.Fatalf("TractableExact: %v\n%s\n%s", err, d, set)
		}
		res, err := Check(d, set, Options{SkipWitness: true})
		if err != nil {
			t.Fatal(err)
		}
		want := res.Verdict == Consistent
		if got != want {
			t.Fatalf("TractableExact=%v, encoder=%v\nDTD:\n%s\nΣ:\n%s", got, res.Verdict, d, set)
		}
	}
}

func TestTractableExactGuards(t *testing.T) {
	d := dtd.MustParse(`<!ELEMENT a (b*)><!ELEMENT b EMPTY><!ATTLIST b x CDATA #REQUIRED>`)
	set := constraint.MustParseSet("b.x -> b")
	if _, err := TractableExact(d, set); err == nil {
		t.Error("starred DTD must be rejected")
	}
	d2 := dtd.MustParse(`<!ELEMENT a (c)><!ELEMENT c (c | b)><!ELEMENT b EMPTY><!ATTLIST b x CDATA #REQUIRED>`)
	if _, err := TractableExact(d2, set); err == nil {
		t.Error("recursive DTD must be rejected")
	}
	d3 := dtd.MustParse(`<!ELEMENT a (b)><!ELEMENT b EMPTY><!ATTLIST b x CDATA #REQUIRED y CDATA #REQUIRED>`)
	if _, err := TractableExact(d3, constraint.MustParseSet("b[x,y] -> b")); err == nil {
		t.Error("multi-attribute constraints must be rejected")
	}
}

func TestTractableExactKnownInstances(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT db (a, (a | b), b)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ATTLIST b y CDATA #REQUIRED>
`)
	sat := constraint.MustParseSet("a.x -> a\nb.y -> b\na.x ⊆ b.y")
	got, err := TractableExact(d, sat)
	if err != nil || !got {
		t.Fatalf("sat instance: %v %v", got, err)
	}
	// Choosing the a-branch gives 2 a's > 2 b's... actually 2 a's and
	// 1 b fails the inclusion with keys; the b-branch (1 a, 2 b) works
	// — now force failure by demanding b ⊆ a as well on a 1-2 split.
	unsat := constraint.MustParseSet("a.x -> a\nb.y -> b\na.x ⊆ b.y\nb.y ⊆ a.x")
	got2, err := TractableExact(d, unsat)
	if err != nil {
		t.Fatal(err)
	}
	if got2 {
		t.Fatal("mutual inclusion with unequal counts must be unsat")
	}
}

// TestLabeledAllocations pins the helper's cost model: unlabeled, it
// calls f directly and allocates nothing; labeled, it still calls f
// exactly once.
func TestLabeledAllocations(t *testing.T) {
	calls := 0
	f := func() { calls++ }
	if n := testing.AllocsPerRun(100, func() { labeled(Options{}, f, "phase", "lint") }); n != 0 {
		t.Errorf("unlabeled labeled() allocates %v times per call, want 0", n)
	}
	calls = 0
	labeled(Options{ProfileLabel: "spec-test"}, f, "phase", "lint")
	labeled(Options{}, f, "phase", "lint")
	if calls != 2 {
		t.Errorf("f ran %d times over two calls, want 2", calls)
	}
}

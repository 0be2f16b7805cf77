package xmlspec

import (
	"strings"
	"testing"
)

const schoolDTD = `
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

const schoolConstraints = `
r._*.(student ∪ prof).record.id -> r._*.(student ∪ prof).record
r._*.student.record.id -> r._*.student.record
r._*.cs434.takenBy.sid -> r._*.cs434.takenBy
r._*.cs434.takenBy.sid ⊆ r._*.student.record.id
r._*.dbLab.acc.num ⊆ r._*.cs434.takenBy.sid
`

func TestSchoolWorkflow(t *testing.T) {
	spec, err := Parse(schoolDTD, schoolConstraints)
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.Class(); got != "AC^{reg}_{K,FK}" {
		t.Errorf("Class = %q", got)
	}
	res, err := spec.Consistent(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Consistent {
		t.Fatalf("verdict = %v (%s)", res.Verdict, res.Diagnosis)
	}
	if res.Witness == "" {
		t.Fatalf("no witness: %s", res.Diagnosis)
	}
	// The witness must validate dynamically through the public API too.
	vs, err := spec.ValidateDocument(res.Witness)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("witness violations: %v", vs)
	}
	// Stage two: the new requirement breaks the specification
	// (Section 1's worked example).
	if err := spec.AddConstraint("r._*.dbLab.acc.num -> r._*.dbLab.acc"); err != nil {
		t.Fatal(err)
	}
	if err := spec.AddConstraint("r.faculty.prof.record.id ⊆ r._*.dbLab.acc.num"); err != nil {
		t.Fatal(err)
	}
	res2, err := spec.Consistent(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Verdict != Inconsistent {
		t.Fatalf("extended verdict = %v, want inconsistent", res2.Verdict)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse("garbage", ""); err == nil {
		t.Error("bad DTD accepted")
	}
	if _, err := Parse("<!ELEMENT a EMPTY>", "nonsense"); err == nil {
		t.Error("bad constraints accepted")
	}
	if _, err := Parse("<!ELEMENT a EMPTY>", "b.x -> b"); err == nil {
		t.Error("constraint on undeclared type accepted")
	}
	spec := MustParse("<!ELEMENT a (b)><!ELEMENT b EMPTY><!ATTLIST b x CDATA #REQUIRED>", "")
	if err := spec.AddConstraint("zz.y -> zz"); err == nil {
		t.Error("AddConstraint must validate")
	}
	if err := spec.AddConstraint("b.x -> b"); err != nil {
		t.Errorf("AddConstraint: %v", err)
	}
}

func TestValidateDocument(t *testing.T) {
	spec := MustParse(`
<!ELEMENT db (p, p)>
<!ELEMENT p EMPTY>
<!ATTLIST p id CDATA #REQUIRED>
`, "p.id -> p")
	vs, err := spec.ValidateDocument(`<db><p id="1"/><p id="2"/></db>`)
	if err != nil || len(vs) != 0 {
		t.Fatalf("valid doc: %v %v", vs, err)
	}
	vs, err = spec.ValidateDocument(`<db><p id="1"/><p id="1"/></db>`)
	if err != nil || len(vs) != 1 {
		t.Fatalf("key violation: %v %v", vs, err)
	}
	if !strings.Contains(vs[0].String(), "p.id -> p") {
		t.Errorf("violation = %q", vs[0])
	}
	vs, err = spec.ValidateDocument(`<db><p id="1"/></db>`)
	if err != nil || len(vs) != 1 || vs[0].Constraint != "" {
		t.Fatalf("conformance violation: %v %v", vs, err)
	}
	if _, err = spec.ValidateDocument("<not xml"); err == nil {
		t.Error("malformed XML accepted")
	}
}

func TestHierarchicalAPI(t *testing.T) {
	spec := MustParse(`
<!ELEMENT library (book+, author_info+)>
<!ELEMENT book (author+)>
<!ELEMENT author EMPTY>
<!ELEMENT author_info EMPTY>
<!ATTLIST author name CDATA #REQUIRED>
<!ATTLIST author_info name CDATA #REQUIRED>
`, `
book(author.name -> author)
library(author_info.name -> author_info)
library(author.name ⊆ author_info.name)
`)
	if spec.Hierarchical() {
		t.Error("Figure 2(b) style spec must not be hierarchical")
	}
	pairs := spec.ConflictingPairs()
	if len(pairs) == 0 || !strings.Contains(pairs[0], "library") {
		t.Errorf("ConflictingPairs = %v", pairs)
	}
	if spec.Class() != "RC_{K,FK}" {
		t.Errorf("Class = %q", spec.Class())
	}
}

func TestImpliesAPI(t *testing.T) {
	spec := MustParse(`
<!ELEMENT db (a*, b*, c*)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ELEMENT c EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ATTLIST b y CDATA #REQUIRED>
<!ATTLIST c z CDATA #REQUIRED>
`, `
b.y -> b
c.z -> c
a.x ⊆ b.y
b.y ⊆ c.z
`)
	res, err := spec.Implies("a.x ⊆ c.z")
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Implied {
		t.Fatalf("transitivity: %v (%s)", res.Verdict, res.Diagnosis)
	}
	res2, err := spec.Implies("c.z ⊆ a.x")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Verdict != NotImplied {
		t.Fatalf("reverse: %v (%s)", res2.Verdict, res2.Diagnosis)
	}
	if res2.Counterexample == "" {
		t.Fatal("no counterexample")
	}
	if vs, err := spec.ValidateDocument(res2.Counterexample); err != nil || len(vs) != 0 {
		t.Fatalf("counterexample must satisfy the spec: %v %v", vs, err)
	}
	if _, err := spec.Implies("not a constraint"); err == nil {
		t.Error("bad constraint accepted")
	}
}

func TestOptionsPlumbing(t *testing.T) {
	spec := MustParse(`
<!ELEMENT db (a, a)>
<!ELEMENT a EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
`, "a.x -> a")
	res, err := spec.Consistent(&Options{SkipWitness: true, DisableLP: true, MaxSolverNodes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Consistent {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if res.Witness != "" {
		t.Error("SkipWitness ignored")
	}

	// The facade's stats carry the solver's LP accounting through.
	lib, err := Parse(load(t, "library.dtd"), load(t, "library.keys"))
	if err != nil {
		t.Fatal(err)
	}
	res, err = lib.Consistent(&Options{SkipLint: true})
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stats; st.Scopes == 0 || st.FastPathLPs+st.RatFallbacks != st.LPCalls {
		t.Errorf("stats %+v: want scopes and FastPathLPs+RatFallbacks == LPCalls", st)
	}
}

func TestEquivalentTo(t *testing.T) {
	const d = `
<!ELEMENT db (a*, b*, c*)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ELEMENT c EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ATTLIST b y CDATA #REQUIRED>
<!ATTLIST c z CDATA #REQUIRED>
`
	s1 := MustParse(d, "b.y -> b\nc.z -> c\na.x ⊆ b.y\nb.y ⊆ c.z")
	s2 := MustParse(d, "b.y -> b\nc.z -> c\na.x ⊆ b.y\nb.y ⊆ c.z\na.x ⊆ c.z")
	res, err := s1.EquivalentTo(s2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Implied {
		t.Fatalf("closure equivalence: %v (%s)", res.Verdict, res.Diagnosis)
	}
	s3 := MustParse(d, "b.y -> b")
	res2, err := s1.EquivalentTo(s3)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Verdict != NotImplied || res2.Separating == "" {
		t.Fatalf("separation: %v (%s)", res2.Verdict, res2.Diagnosis)
	}
	// Mismatched DTDs are rejected.
	s4 := MustParse("<!ELEMENT db EMPTY>", "")
	if _, err := s1.EquivalentTo(s4); err == nil {
		t.Error("mismatched DTDs accepted")
	}
}

func TestExplainInconsistency(t *testing.T) {
	spec := MustParse(`
<!ELEMENT db (a, a, b)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ATTLIST b y CDATA #REQUIRED>
`, "a.x -> a\nb.y -> b\na.x ⊆ b.y")
	core, err := spec.ExplainInconsistency()
	if err != nil {
		t.Fatal(err)
	}
	if len(core) != 3 {
		t.Fatalf("core = %v, want all three constraints", core)
	}
	ok := MustParse("<!ELEMENT db EMPTY>", "")
	if _, err := ok.ExplainInconsistency(); err == nil {
		t.Error("explain on consistent spec must error")
	}
}

func TestValidateStream(t *testing.T) {
	spec := MustParse(`
<!ELEMENT db (p*)>
<!ELEMENT p EMPTY>
<!ATTLIST p id CDATA #REQUIRED>
`, "p.id -> p")
	vs, err := spec.ValidateStream(strings.NewReader(`<db><p id="1"/><p id="1"/></db>`))
	if err != nil || len(vs) != 1 {
		t.Fatalf("stream violations: %v %v", vs, err)
	}
	vs, err = spec.ValidateStream(strings.NewReader(`<db><p id="1"/></db>`))
	if err != nil || len(vs) != 0 {
		t.Fatalf("stream valid doc: %v %v", vs, err)
	}
	if _, err := spec.ValidateStream(strings.NewReader("<db>")); err == nil {
		t.Error("unclosed stream must error")
	}
}

func TestSample(t *testing.T) {
	spec := MustParse(`
<!ELEMENT store (book*, order*)>
<!ELEMENT book EMPTY>
<!ELEMENT order EMPTY>
<!ATTLIST book isbn CDATA #REQUIRED>
<!ATTLIST order isbn CDATA #REQUIRED>
`, `
book.isbn -> book
order.isbn ⊆ book.isbn
`)
	docs, err := spec.Sample(8, &SampleOptions{MaxNodes: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 8 {
		t.Fatalf("got %d documents", len(docs))
	}
	for _, doc := range docs {
		vs, err := spec.ValidateDocument(doc)
		if err != nil || len(vs) != 0 {
			t.Fatalf("sampled document invalid: %v %v\n%s", vs, err, doc)
		}
	}
	// Reproducible.
	again, err := spec.Sample(8, &SampleOptions{MaxNodes: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range docs {
		if docs[i] != again[i] {
			t.Fatal("sampling not reproducible for a fixed seed")
		}
	}
	// Inconsistent specs cannot be sampled.
	bad := MustParse(`
<!ELEMENT db (a, a, b)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ATTLIST b y CDATA #REQUIRED>
`, "a.x -> a\nb.y -> b\na.x ⊆ b.y")
	if _, err := bad.Sample(1, nil); err == nil {
		t.Fatal("inconsistent spec sampled")
	}
}

func TestAccessorsAndNormalized(t *testing.T) {
	spec := MustParse(`
<!ELEMENT db (p*)>
<!ELEMENT p EMPTY>
<!ATTLIST p id CDATA #REQUIRED>
`, "p.id -> p\np.id -> p\np.id ⊆ p.id")
	if !strings.Contains(spec.DTD(), "<!ELEMENT db") {
		t.Errorf("DTD() = %q", spec.DTD())
	}
	if !strings.Contains(spec.Constraints(), "p.id -> p") {
		t.Errorf("Constraints() = %q", spec.Constraints())
	}
	n := spec.Normalized()
	if got := strings.Count(n.Constraints(), "\n"); got != 1 {
		t.Errorf("normalized constraints:\n%s", n.Constraints())
	}
	// Normalization must preserve the verdict.
	r1, err := spec.Consistent(&Options{SkipWitness: true})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := n.Consistent(&Options{SkipWitness: true})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Verdict != r2.Verdict {
		t.Errorf("normalization changed verdict %v -> %v", r1.Verdict, r2.Verdict)
	}
}

// TestAttributionWithoutObserver: Options.Attribution returns cost rows
// on a spec with no observer attached.
func TestAttributionWithoutObserver(t *testing.T) {
	spec := MustParse(`<!ELEMENT library (book*)>
<!ELEMENT book EMPTY>
<!ATTLIST book isbn CDATA #REQUIRED>`, `book.isbn -> book`)
	res, err := spec.Consistent(&Options{Attribution: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Attribution) != 1 || res.Attribution[0].Key != "document" || res.Attribution[0].Verdict != "sat" {
		t.Fatalf("attribution = %+v, want one sat document row", res.Attribution)
	}
	res, err = spec.Consistent(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attribution != nil {
		t.Fatalf("attribution without the option: %+v", res.Attribution)
	}
}

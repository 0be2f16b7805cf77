package consistency

import (
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/certificate"
	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/ilp"
)

// certJSON canonicalizes a certificate for comparison (scope vectors
// are assembled in sorted key order, so equal certificates marshal to
// equal bytes).
func certJSON(t *testing.T, res Result) string {
	t.Helper()
	if res.Certificate == nil {
		return ""
	}
	b, err := json.Marshal(res.Certificate)
	if err != nil {
		t.Fatalf("marshal certificate: %v", err)
	}
	return string(b)
}

// assertSameOutcome checks that two runs of one specification agree
// exactly: verdict, method, certificate, witness, and aggregate stats.
func assertSameOutcome(t *testing.T, label string, want, got Result) {
	t.Helper()
	if got.Verdict != want.Verdict {
		t.Fatalf("%s: verdict = %v, first run = %v (%s / %s)",
			label, got.Verdict, want.Verdict, got.Diagnosis, want.Diagnosis)
	}
	if got.Method != want.Method {
		t.Errorf("%s: method = %q, first run = %q", label, got.Method, want.Method)
	}
	if g, w := certJSON(t, got), certJSON(t, want); g != w {
		t.Errorf("%s: certificate differs\nrerun:     %s\nfirst run: %s", label, g, w)
	}
	if (got.Witness == nil) != (want.Witness == nil) {
		t.Fatalf("%s: witness presence differs (rerun %v, first run %v)",
			label, got.Witness != nil, want.Witness != nil)
	}
	if got.Witness != nil && got.Witness.XML() != want.Witness.XML() {
		t.Errorf("%s: witness differs\nrerun:\n%s\nfirst run:\n%s",
			label, got.Witness.XML(), want.Witness.XML())
	}
	if got.Stats != want.Stats {
		t.Errorf("%s: stats differ\nrerun:     %+v\nfirst run: %+v", label, got.Stats, want.Stats)
	}
}

// TestHierarchicalFixturesDeterministic decides the named paper
// specifications on the scope decomposition, checks each verdict and
// its certificate, and demands that a second run reproduce the first
// bit for bit.
func TestHierarchicalFixturesDeterministic(t *testing.T) {
	fixtures := []struct {
		name, dtdSrc, cSrc string
		want               Verdict
	}{
		{"geography", geoDTD, geoConstraints, Inconsistent},
		{"library", libraryDTD, libraryConstraints, Consistent},
		{"nested-contexts", nestedDTD, nestedConstraints, Inconsistent},
	}
	for _, fx := range fixtures {
		d := dtd.MustParse(fx.dtdSrc)
		set := constraint.MustParseSet(fx.cSrc)
		// SkipLint forces the hierarchical route even for specs the
		// prepass would short-circuit.
		first, err := Check(d, set, Options{SkipLint: true})
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		if first.Verdict != fx.want {
			t.Fatalf("%s: verdict = %v, want %v", fx.name, first.Verdict, fx.want)
		}
		if err := certificate.Verify(d, set, first.Certificate); err != nil {
			t.Errorf("%s: certificate rejected: %v", fx.name, err)
		}
		again, err := Check(d, set, Options{SkipLint: true})
		if err != nil {
			t.Fatalf("%s rerun: %v", fx.name, err)
		}
		assertSameOutcome(t, fx.name, first, again)
	}
}

// TestHierarchicalRandom is the differential harness of the scope
// decomposition: 500 random hierarchical specifications, each decided
// on the int64 LP fast path and again with it disabled. Every witness
// must conform and satisfy the constraints, and the exact big.Rat
// tableau must reach the same verdict and certificate.
func TestHierarchicalRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	trials := 0
	for trials < 500 {
		d := dtd.Random(rng, dtd.RandomOptions{
			Types: 3 + rng.Intn(3), MaxAttrs: 1, MaxExprSize: 5,
			AllowStar: rng.Intn(2) == 0, AllowText: false,
		})
		set := randomRelativeSet(rng, d)
		if set.Size() == 0 || set.Validate(d) != nil || !Hierarchical(d, set) {
			continue
		}
		trials++
		fast, err := Check(d, set, Options{SkipLint: true})
		if err != nil {
			t.Fatal(err)
		}
		if fast.Verdict == Consistent && fast.Witness != nil {
			if err := fast.Witness.Conforms(d); err != nil {
				t.Fatalf("witness conformance: %v\nDTD:\n%s\nΣ:\n%s", err, d, set)
			}
			if vs := constraint.Check(fast.Witness, set); len(vs) != 0 {
				t.Fatalf("witness violations: %v\nDTD:\n%s\nΣ:\n%s", vs, d, set)
			}
		}
		// Stats legitimately differ: FastPathLPs collapses to zero.
		rat, err := Check(d, set, Options{SkipLint: true, ILP: ilp.Options{ForceRatLP: true}})
		if err != nil {
			t.Fatal(err)
		}
		if rat.Verdict != fast.Verdict {
			t.Fatalf("ForceRatLP verdict = %v, fast path = %v\nDTD:\n%s\nΣ:\n%s",
				rat.Verdict, fast.Verdict, d, set)
		}
		if got, want := certJSON(t, rat), certJSON(t, fast); got != want {
			t.Fatalf("ForceRatLP certificate differs\nrat:  %s\nfast: %s\nDTD:\n%s\nΣ:\n%s",
				got, want, d, set)
		}
	}
}

// nestedDTD/nestedConstraints is the inconsistent nested-context spec
// from TestRelativeNestedContexts: a book-level key on section titles
// against a chapter-level inclusion into a single holder value.
const nestedDTD = `
<!ELEMENT library (book)>
<!ELEMENT book (chapter, chapter)>
<!ELEMENT chapter (section, section, holder)>
<!ELEMENT section EMPTY>
<!ELEMENT holder EMPTY>
<!ATTLIST section title CDATA #REQUIRED>
<!ATTLIST holder h CDATA #REQUIRED>
`

const nestedConstraints = `
book(section.title -> section)
chapter(holder.h -> holder)
chapter(section.title ⊆ holder.h)
`

// TestHierarchicalDeepChain decides a three-level decomposition in
// which scopes wait on their grandchildren. The spec has the Figure 4
// hierarchical shape: every level carries its own keyed items
// injecting into a single holder value, which is unsatisfiable.
func TestHierarchicalDeepChain(t *testing.T) {
	const deepDTD = `
<!ELEMENT l0 (l1, l1, item0, item0, holder0)>
<!ELEMENT l1 (l2, l2, item1, item1, holder1)>
<!ELEMENT l2 (item2, item2, holder2)>
<!ELEMENT item0 EMPTY>
<!ELEMENT item1 EMPTY>
<!ELEMENT item2 EMPTY>
<!ELEMENT holder0 EMPTY>
<!ELEMENT holder1 EMPTY>
<!ELEMENT holder2 EMPTY>
<!ATTLIST item0 v CDATA #REQUIRED>
<!ATTLIST item1 v CDATA #REQUIRED>
<!ATTLIST item2 v CDATA #REQUIRED>
<!ATTLIST holder0 v CDATA #REQUIRED>
<!ATTLIST holder1 v CDATA #REQUIRED>
<!ATTLIST holder2 v CDATA #REQUIRED>
`
	const deepConstraints = `
l0(item0.v -> item0)
l1(item1.v -> item1)
l2(item2.v -> item2)
l0(holder0.v -> holder0)
l1(holder1.v -> holder1)
l2(holder2.v -> holder2)
l0(item0.v ⊆ holder0.v)
l1(item1.v ⊆ holder1.v)
l2(item2.v ⊆ holder2.v)
`
	d := dtd.MustParse(deepDTD)
	set := constraint.MustParseSet(deepConstraints)
	if !Hierarchical(d, set) {
		t.Fatal("deep chain spec must be hierarchical")
	}
	res, err := Check(d, set, Options{SkipLint: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Inconsistent {
		t.Fatalf("verdict = %v, want Inconsistent (%s)", res.Verdict, res.Diagnosis)
	}
	if res.Stats.Scopes < 3 {
		t.Fatalf("scopes = %d, want a real multi-scope decomposition", res.Stats.Scopes)
	}
	if err := certificate.Verify(d, set, res.Certificate); err != nil {
		t.Fatalf("certificate rejected: %v", err)
	}
}

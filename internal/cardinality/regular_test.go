package cardinality

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/ilp"
	"repro/internal/pathre"
)

// schoolDTD is the DTD of Figure 1(a).
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

// schoolConstraints are the consistent constraints of Section 1.
const schoolConstraints = `
r._*.(student ∪ prof).record.id -> r._*.(student ∪ prof).record
r._*.cs434.takenBy.sid ⊆ r._*.student.record.id
r._*.student.record.id -> r._*.student.record
r._*.dbLab.acc.num ⊆ r._*.cs434.takenBy.sid
r._*.cs434.takenBy.sid -> r._*.cs434.takenBy
`

// schoolExtension is the later requirement that makes the whole
// specification inconsistent: every professor needs a dbLab account.
const schoolExtension = `
r.faculty.prof.record.id ⊆ r._*.dbLab.acc.num
r._*.dbLab.acc.num -> r._*.dbLab.acc
`

func decideRegular(t *testing.T, d *dtd.DTD, set *constraint.Set) (ilp.Result, *RegularEncoding) {
	t.Helper()
	if err := set.Validate(d); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	enc, err := EncodeRegular(d, set)
	if err != nil {
		t.Fatalf("EncodeRegular: %v", err)
	}
	res, _ := DecideFlow(enc.Flow, ilp.Options{})
	return res, enc
}

func TestSchoolConsistent(t *testing.T) {
	d := dtd.MustParse(schoolDTD)
	set := constraint.MustParseSet(schoolConstraints)
	res, enc := decideRegular(t, d, set)
	if res.Verdict != ilp.Sat {
		t.Fatalf("school specification verdict = %v, want sat", res.Verdict)
	}
	w, err := enc.Witness(res.Values, 5000)
	if err != nil {
		t.Fatalf("witness: %v", err)
	}
	if errc := w.Conforms(d); errc != nil {
		t.Fatalf("witness conformance: %v", errc)
	}
	if vs := constraint.Check(w, set); len(vs) != 0 {
		t.Fatalf("witness violations: %v\n%s", vs, w.XML())
	}
}

func TestSchoolInconsistentAfterExtension(t *testing.T) {
	// Adding "every professor has a dbLab account" contradicts
	// "dbLab accounts belong to students taking cs434" and the shared
	// id key (Section 1's worked example).
	d := dtd.MustParse(schoolDTD)
	set := constraint.MustParseSet(schoolConstraints + schoolExtension)
	res, _ := decideRegular(t, d, set)
	if res.Verdict != ilp.Unsat {
		t.Fatalf("extended school specification verdict = %v, want unsat", res.Verdict)
	}
}

func TestRegularRootRegion(t *testing.T) {
	// A key on the root type: trivially satisfiable (one root).
	d := dtd.MustParse(`
<!ELEMENT r (a)>
<!ELEMENT a EMPTY>
<!ATTLIST r id CDATA #REQUIRED>
<!ATTLIST a x CDATA #REQUIRED>
`)
	set := constraint.MustParseSet("r.id -> r\na.x ⊆ r.id\na.x -> a")
	res, enc := decideRegular(t, d, set)
	if res.Verdict != ilp.Sat {
		t.Fatalf("verdict = %v, want sat", res.Verdict)
	}
	w, err := enc.Witness(res.Values, 100)
	if err != nil {
		t.Fatalf("witness: %v", err)
	}
	if vs := constraint.Check(w, set); len(vs) != 0 {
		t.Fatalf("witness violations: %v\n%s", vs, w.XML())
	}
}

func TestRegularPathSensitivity(t *testing.T) {
	// The same element type under two paths: a key under one path only
	// constrains those nodes. Two b's under x (same value allowed if
	// only the y-path is keyed).
	d := dtd.MustParse(`
<!ELEMENT r (x, y)>
<!ELEMENT x (b, b)>
<!ELEMENT y (b, b)>
<!ELEMENT b EMPTY>
<!ATTLIST b v CDATA #REQUIRED>
`)
	// Key only on b's under y, plus an inclusion forcing x-b values
	// into y-b values.
	set := constraint.MustParseSet(`
r.y.b.v -> r.y.b
r.x.b.v ⊆ r.y.b.v
`)
	res, enc := decideRegular(t, d, set)
	if res.Verdict != ilp.Sat {
		t.Fatalf("verdict = %v, want sat", res.Verdict)
	}
	if _, err := enc.Witness(res.Values, 100); err != nil {
		t.Fatalf("witness: %v", err)
	}
	// Keying the x-side too and forcing both x-b values into a single
	// shared value via a 1-element region is a counting conflict.
	d2 := dtd.MustParse(`
<!ELEMENT r (x, c)>
<!ELEMENT x (b, b)>
<!ELEMENT c EMPTY>
<!ELEMENT b EMPTY>
<!ATTLIST b v CDATA #REQUIRED>
<!ATTLIST c w CDATA #REQUIRED>
`)
	set2 := constraint.MustParseSet(`
r.x.b.v -> r.x.b
r.c.w -> r.c
r.x.b.v ⊆ r.c.w
`)
	res2, _ := decideRegular(t, d2, set2)
	if res2.Verdict != ilp.Unsat {
		t.Fatalf("verdict = %v, want unsat (2 keyed values ⊆ 1)", res2.Verdict)
	}
}

func TestRegionExpr(t *testing.T) {
	d := dtd.MustParse(`<!ELEMENT r (a)><!ELEMENT a EMPTY><!ATTLIST a x CDATA #REQUIRED><!ATTLIST r y CDATA #REQUIRED>`)
	if got := regionExpr(d, constraint.Target{Type: "r", Attrs: []string{"y"}}); got.String() != "r" {
		t.Errorf("root region = %s, want r", got)
	}
	if got := regionExpr(d, constraint.Target{Type: "a", Attrs: []string{"x"}}); got.String() != "r._*.a" {
		t.Errorf("type region = %s, want r._*.a", got)
	}
	beta := pathre.MustParse("r.a")
	tgt := constraint.Target{Path: pathre.MustParse("r"), Type: "a", Attrs: []string{"x"}}
	if got := regionExpr(d, tgt); !got.Equal(beta) {
		t.Errorf("path region = %s, want %s", got, beta)
	}
}

func TestRegionCap(t *testing.T) {
	d := dtd.MustParse(`<!ELEMENT r (a)><!ELEMENT a EMPTY><!ATTLIST a x CDATA #REQUIRED>`)
	set := &constraint.Set{}
	for i := 0; i <= MaxRegions; i++ {
		// Distinct β per key: r._*. … repeated wildcards.
		beta := pathre.Symbol("r")
		for j := 0; j < i; j++ {
			beta = pathre.Concat(beta, pathre.Wildcard())
		}
		set.AddKey(constraint.Key{Target: constraint.Target{
			Path: pathre.Concat(beta, pathre.AnyPath()), Type: "a", Attrs: []string{"x"},
		}})
	}
	if _, err := EncodeRegular(d, set); err == nil {
		t.Fatal("expected region cap error")
	}
}

// TestRegularAgainstBruteForce cross-checks the state-tagged encoding
// against bounded exhaustive search on random small specifications
// with regular path constraints.
func TestRegularAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	trials := 0
	for trials < 160 {
		d := dtd.Random(rng, dtd.RandomOptions{
			Types: 2 + rng.Intn(3), MaxAttrs: 1, MaxExprSize: 5,
			AllowStar: rng.Intn(2) == 0, AllowText: false,
		})
		set := randomRegularSet(rng, d)
		if set.Size() == 0 || set.Validate(d) != nil {
			continue
		}
		enc, err := EncodeRegular(d, set)
		if err != nil {
			continue // region cap
		}
		trials++
		res, _ := DecideFlow(enc.Flow, ilp.Options{MaxNodes: 1 << 16})
		bf := bruteforce.Decide(d, set, bruteforce.Options{MaxNodes: 4, MaxShapes: 3000, MaxPartitions: 3000})
		switch res.Verdict {
		case ilp.Sat:
			w, err := enc.Witness(res.Values, 4000)
			if err != nil {
				t.Fatalf("witness failed on sat instance: %v\nDTD:\n%s\nΣ:\n%s", err, d, set)
			}
			if errc := w.Conforms(d); errc != nil {
				t.Fatalf("witness conformance: %v\nDTD:\n%s\nΣ:\n%s\n%s", errc, d, set, w.XML())
			}
		case ilp.Unsat:
			if bf.Sat() {
				t.Fatalf("encoder unsat but brute force found witness\nDTD:\n%s\nΣ:\n%s\nDoc:\n%s",
					d, set, bf.Witness.XML())
			}
		case ilp.Unknown:
			t.Fatalf("unknown on small instance\nDTD:\n%s\nΣ:\n%s", d, set)
		}
		if bf.Sat() && res.Verdict != ilp.Sat {
			t.Fatalf("brute force sat but encoder %v\nDTD:\n%s\nΣ:\n%s", res.Verdict, d, set)
		}
	}
}

// randomRegularSet draws a random unary constraint set mixing
// type-based and path-based targets.
func randomRegularSet(rng *rand.Rand, d *dtd.DTD) *constraint.Set {
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
	target := func() constraint.Target {
		x := tas[rng.Intn(len(tas))]
		t := constraint.Target{Type: x.typ, Attrs: []string{x.attr}}
		switch rng.Intn(3) {
		case 0:
			// type-based (β = r._* implicitly)
		case 1:
			t.Path = pathre.Concat(pathre.Symbol(d.Root), pathre.AnyPath())
		case 2:
			// A narrower path: r followed by up to 2 wildcards.
			p := pathre.Symbol(d.Root)
			for j := rng.Intn(3); j > 0; j-- {
				p = pathre.Concat(p, pathre.Wildcard())
			}
			t.Path = p
		}
		return t
	}
	for i := 1 + rng.Intn(2); i > 0; i-- {
		set.AddKey(constraint.Key{Target: target()})
	}
	for i := rng.Intn(2); i > 0; i-- {
		set.AddForeignKey(constraint.Inclusion{From: target(), To: target()})
	}
	return set
}

// TestRegularEncodingDeterministic re-encodes the §1 school spec with
// its extension 50 times: every encoding must render the same rows in
// the same order (the pattern-positivity rows once followed map
// iteration order) and keep the digest refutation certificates pin.
func TestRegularEncodingDeterministic(t *testing.T) {
	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	d := dtd.MustParse(read("school.dtd"))
	set := constraint.MustParseSet(read("school-extended.keys"))
	const digest = "v92-5b11ab9d368cc7f5"
	var first string
	for i := 0; i < 50; i++ {
		enc, err := EncodeRegular(d, set)
		if err != nil {
			t.Fatal(err)
		}
		s := enc.Flow.Sys.String()
		if i == 0 {
			first = s
		} else if s != first {
			t.Fatalf("encode %d renders differently:\n%s\nfirst:\n%s", i, s, first)
		}
		if got := enc.Flow.Sys.Digest(); got != digest {
			t.Fatalf("encode %d: digest %s, want %s", i, got, digest)
		}
	}
}

package consistency_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/consistency"
	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/experiments"
)

const witnessGoldenPath = "testdata/witness.golden"

// witnessSpecs lists consistent specifications on every route that
// ships a witness: the paper's library (hierarchical) and school
// (regular) specs, a keys-only spec, the hierarchical and tractable
// families, Figure 3 regular draws, the inexact absolute cell and the
// bounded search of Figure 2(b), plus tight WitnessMaxNodes budgets
// whose diagnoses the golden pins as well. A hierarchical witness is
// charged the composed document's size: library's is 5 elements, and
// levels=6's is 252 (TestHierarchicalWitnessBudget pins that edge).
func witnessSpecs(t testing.TB) []certSpec {
	t.Helper()
	var out []certSpec
	for _, p := range []struct{ dtd, keys string }{{"library", "library"}, {"school", "school"}} {
		d, set := consistency.LoadTestdataSpec(t, p.dtd, p.keys)
		in := experiments.Instance{D: d, Set: set}
		out = append(out,
			certSpec{name: "testdata/" + p.keys, in: in},
			certSpec{name: "testdata/" + p.keys + "/minimize", in: in, opts: consistency.Options{MinimizeWitness: true}},
			certSpec{name: "testdata/" + p.keys + "/max=5", in: in, opts: consistency.Options{WitnessMaxNodes: 5}},
			certSpec{name: "testdata/" + p.keys + "/max=6", in: in, opts: consistency.Options{WitnessMaxNodes: 6}})
	}
	add := func(name string, in experiments.Instance) {
		out = append(out, certSpec{name: name, in: in, opts: in.Opts})
	}
	for levels := 1; levels <= 6; levels++ {
		add(fmt.Sprintf("hierarchical/levels=%d", levels), experiments.Fig4Hierarchical(levels, true))
	}
	for _, max := range []int{1, 6, 60, 313, 314} {
		in := experiments.Fig4Hierarchical(6, true)
		out = append(out, certSpec{name: fmt.Sprintf("hierarchical/levels=6/max=%d", max), in: in, opts: consistency.Options{WitnessMaxNodes: max}})
	}
	for _, width := range []int{2, 8, 16, 32} {
		add(fmt.Sprintf("tractable/width=%d", width), experiments.Thm35Tractable(width, true))
	}
	for seed := int64(3); seed <= 6; seed++ {
		add(fmt.Sprintf("qbf-reg/m=2/seed=%d", seed), experiments.Fig3Regular(rand.New(rand.NewSource(seed)), 2))
	}
	add("multimulti/sat", experiments.Fig3MultiMulti("sat"))
	add("diophantine/linear-sat", experiments.Fig4Diophantine("linear-sat"))
	lib := experiments.Instance{
		D: dtd.MustParse(`
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
`),
		Set: constraint.MustParseSet(`
library(book.isbn -> book)
book(author.name -> author)
book(chapter.number -> chapter)
chapter(section.title -> section)
library(author_info.name -> author_info)
library(author.name ⊆ author_info.name)
`),
	}
	out = append(out, certSpec{name: "library2/bounded-search", in: lib, opts: consistency.Options{BruteForce: bruteforce.Options{MaxNodes: 7}}})
	keys := experiments.Instance{D: lib.D, Set: constraint.MustParseSet("book.isbn -> book\nauthor_info.name -> author_info")}
	add("library2/keys-only", keys)
	return out
}

// witnessLine is one witness golden entry: the check's verdict,
// method and diagnosis, whether its witness passed the dynamic
// checker, the rendered witness and the certificate.
type witnessLine struct {
	Verdict, Method, Diagnosis string
	WitnessVerified            bool
	Witness                    string
	Certificate                json.RawMessage
}

func witnessShape(s certSpec) (string, error) {
	res, err := consistency.Check(s.in.D, s.in.Set, s.opts)
	if err != nil {
		return "", err
	}
	line := witnessLine{Verdict: res.Verdict.String(), Method: res.Method, Diagnosis: res.Diagnosis, WitnessVerified: res.WitnessVerified}
	if res.Witness != nil {
		line.Witness = res.Witness.XML()
	}
	if got := res.WitnessXML(); res.WitnessVerified && got != line.Witness {
		return "", fmt.Errorf("WitnessXML renders\n%s\nwhere the witness is\n%s", got, line.Witness)
	}
	if line.Certificate, err = json.Marshal(res.Certificate); err != nil {
		return "", err
	}
	b, err := json.Marshal(line)
	return string(b), err
}

// TestWitnessXMLRendersOnce pins that a verified witness with a
// document certificate, on the inexact absolute and the bounded-search
// routes, is not rendered again: WitnessXML hands out the
// certificate's document.
func TestWitnessXMLRendersOnce(t *testing.T) {
	for _, s := range witnessSpecs(t) {
		if s.name != "multimulti/sat" && s.name != "library2/bounded-search" {
			continue
		}
		res, err := consistency.Check(s.in.D, s.in.Set, s.opts)
		if err != nil || !res.WitnessVerified || res.Certificate == nil || res.Certificate.Witness.Document == "" {
			t.Fatalf("%s: %v, verified %v, certificate %+v", s.name, err, res.WitnessVerified, res.Certificate)
		}
		if n := testing.AllocsPerRun(10, func() { res.WitnessXML() }); n != 0 {
			t.Errorf("%s: WitnessXML allocates %.0f times, want 0", s.name, n)
		}
	}
}

// TestHierarchicalWitnessBudget checks that a composed hierarchical
// witness is charged its own size against WitnessMaxNodes, each exit
// leaf and the sub-scope root below it once: Fig4Hierarchical(6)'s
// 252-element witness is built at budget 252 and refused at 251.
func TestHierarchicalWitnessBudget(t *testing.T) {
	in := experiments.Fig4Hierarchical(6, true)
	res, err := consistency.Check(in.D, in.Set, consistency.Options{WitnessMaxNodes: 252})
	if err != nil || !res.WitnessVerified || res.Witness == nil {
		t.Fatalf("budget 252: err %v, verified %v, diagnosis %q", err, res.WitnessVerified, res.Diagnosis)
	}
	if n := res.Witness.Size(); n != 252 {
		t.Errorf("witness has %d nodes, want 252", n)
	}
	res, err = consistency.Check(in.D, in.Set, consistency.Options{WitnessMaxNodes: 251})
	if err != nil || res.Witness != nil || !strings.Contains(res.Diagnosis, "exceeded its budget") {
		t.Errorf("budget 251: err %v, witness %v, diagnosis %q", err, res.Witness != nil, res.Diagnosis)
	}
}

// TestWitnessGolden pins every witness the golden set's checks ship —
// the rendered document, the certificate and the diagnosis, budget
// trips included — byte for byte, so a faster witness pipeline must
// build exactly the documents it built before. Regenerate it
// (-update) only when a witness is meant to change.
func TestWitnessGolden(t *testing.T) {
	specs := witnessSpecs(t)
	if *updateGolden {
		var buf bytes.Buffer
		for _, s := range specs {
			line, err := witnessShape(s)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			fmt.Fprintf(&buf, "%s\t%s\n", s.name, line)
		}
		if err := os.WriteFile(witnessGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(witnessGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, l := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		name, body, ok := strings.Cut(l, "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", l)
		}
		golden[name] = body
	}
	if len(golden) != len(specs) {
		t.Fatalf("golden file has %d entries, the spec set %d", len(golden), len(specs))
	}
	for _, s := range specs {
		got, err := witnessShape(s)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if want := golden[s.name]; got != want {
			t.Errorf("%s: witness changed\n got: %s\nwant: %s", s.name, got, want)
		}
	}
}

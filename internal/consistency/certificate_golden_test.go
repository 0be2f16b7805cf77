package consistency_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/consistency"
	"repro/internal/experiments"
)

const certificateGoldenPath = "testdata/certificates.golden"

// certSpec is one specification of the certificate golden set, with
// the options it is checked under.
type certSpec struct {
	name string
	in   experiments.Instance
	opts consistency.Options
}

// certificateSpecs lists the testdata specs (with and without the lint
// prepass, so every route's certificate appears) and seeded draws of
// the Figure 3/4 families: vector, scope-vector and document
// witnesses, and infeasibility and scope refutations with their
// system digests.
func certificateSpecs(t testing.TB) []certSpec {
	t.Helper()
	var out []certSpec
	for _, p := range []struct{ dtd, keys string }{
		{"library", "library"},
		{"geography", "geography"},
		{"school", "school"},
		{"school", "school-extended"},
	} {
		d, set := consistency.LoadTestdataSpec(t, p.dtd, p.keys)
		in := experiments.Instance{D: d, Set: set}
		out = append(out,
			certSpec{name: "testdata/" + p.keys, in: in},
			certSpec{name: "testdata/" + p.keys + "/skip-lint", in: in, opts: consistency.Options{SkipLint: true}},
			certSpec{name: "testdata/" + p.keys + "/minimize", in: in, opts: consistency.Options{SkipLint: true, MinimizeWitness: true}})
	}
	add := func(name string, in experiments.Instance) {
		out = append(out, certSpec{name: name, in: in, opts: in.Opts})
	}
	for seed := int64(1); seed <= 8; seed++ {
		add(fmt.Sprintf("cnf/n=4/seed=%d", seed), experiments.Fig3Unary(rand.New(rand.NewSource(seed)), 4))
		add(fmt.Sprintf("qbf-reg/m=2/seed=%d", seed), experiments.Fig3Regular(rand.New(rand.NewSource(seed)), 2))
		add(fmt.Sprintf("subsetsum/seed=%d", seed), experiments.Thm35SubsetSum(rand.New(rand.NewSource(seed)), 4, 256))
	}
	add("cnf/n=6/seed=29", experiments.Fig3Unary(rand.New(rand.NewSource(29)), 6))
	for seed := int64(1); seed <= 3; seed++ {
		add(fmt.Sprintf("qbf-reg/m=3/seed=%d", seed), experiments.Fig3Regular(rand.New(rand.NewSource(seed)), 3))
		add(fmt.Sprintf("dlocal/m=3/seed=%d", seed), experiments.Fig4DLocal(rand.New(rand.NewSource(seed)), 3))
	}
	for _, levels := range []int{2, 3, 4} {
		add(fmt.Sprintf("hierarchical/levels=%d/sat", levels), experiments.Fig4Hierarchical(levels, true))
		add(fmt.Sprintf("hierarchical/levels=%d/unsat", levels), experiments.Fig4Hierarchical(levels, false))
	}
	for _, sat := range []bool{true, false} {
		add(fmt.Sprintf("tractable/width=8/sat=%v", sat), experiments.Thm35Tractable(8, sat))
	}
	for _, kind := range []string{"sat", "unsat"} {
		add("multimulti/"+kind, experiments.Fig3MultiMulti(kind))
	}
	for _, kind := range []string{"linear-sat", "linear-unsat"} {
		add("diophantine/"+kind, experiments.Fig4Diophantine(kind))
	}
	return out
}

// certificateLine renders one check's verdict and certificate.
func certificateLine(s certSpec) (string, error) {
	res, err := consistency.Check(s.in.D, s.in.Set, s.opts)
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(res.Certificate)
	if err != nil {
		return "", err
	}
	return res.Verdict.String() + "\t" + string(b), nil
}

// TestCertificateGolden pins every certificate of the golden set byte
// for byte: vector names and values, scope keys, refuted-system
// digests and witness documents must not move when the compilers
// underneath are rewritten. The golden file was produced by the
// map-based compilers; regenerate it (-update) only when a
// certificate is meant to change.
func TestCertificateGolden(t *testing.T) {
	specs := certificateSpecs(t)
	if *updateGolden {
		var buf bytes.Buffer
		for _, s := range specs {
			line, err := certificateLine(s)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			fmt.Fprintf(&buf, "%s\t%s\n", s.name, line)
		}
		if err := os.WriteFile(certificateGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(certificateGoldenPath)
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
		got, err := certificateLine(s)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if want := golden[s.name]; got != want {
			t.Errorf("%s: certificate changed\n got: %s\nwant: %s", s.name, got, want)
		}
	}
}

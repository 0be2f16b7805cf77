package consistency_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/consistency"
	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/experiments"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden files of the tests that run")

const explainGoldenPath = "testdata/explain.golden"

// goldenSpec is one inconsistent specification of the golden set.
type goldenSpec struct {
	name string
	d    *dtd.DTD
	set  *constraint.Set
	// slow entries are skipped under -short.
	slow bool
}

// goldenSpecs lists the explained specifications: the testdata
// inconsistent specs, the unsat hierarchical and tractable families,
// and ten seeded unsat draws each of subset-sum (n=4) and Fig3Regular
// (m=2) — the kinds of the explain-inconsistent benchmark workload.
func goldenSpecs(t testing.TB) []goldenSpec {
	t.Helper()
	var out []goldenSpec
	for _, p := range []struct{ dtd, keys string }{
		{"geography", "geography"},
		{"school", "school-extended"},
	} {
		d, set := consistency.LoadTestdataSpec(t, p.dtd, p.keys)
		out = append(out, goldenSpec{name: "testdata/" + p.keys, d: d, set: set, slow: p.keys == "school-extended"})
	}
	add := func(name string, in experiments.Instance) {
		out = append(out, goldenSpec{name: name, d: in.D, set: in.Set})
	}
	for _, levels := range []int{2, 3} {
		add(fmt.Sprintf("hierarchical/levels=%d", levels), experiments.Fig4Hierarchical(levels, false))
	}
	for _, width := range []int{8, 16, 32} {
		add(fmt.Sprintf("tractable/width=%d", width), experiments.Thm35Tractable(width, false))
	}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for {
			if in := experiments.Thm35SubsetSum(rng, 4, 256); in.Expect == consistency.Inconsistent {
				add(fmt.Sprintf("subsetsum/seed=%d", seed), in)
				break
			}
		}
	}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for {
			if in := experiments.Fig3Regular(rng, 2); in.Expect == consistency.Inconsistent {
				add(fmt.Sprintf("qbf-reg/seed=%d", seed), in)
				break
			}
		}
	}
	return out
}

// goldenJSON renders an explanation with its cost counter zeroed: the
// golden file pins what an explanation says, not how many
// sub-decisions it took to find it.
func goldenJSON(ex consistency.Explanation) (string, error) {
	ex.Checks = 0
	b, err := json.Marshal(ex)
	return string(b), err
}

// readGolden parses the golden file: one "name<TAB>json" line per
// entry.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(explainGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		name, body, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		out[name] = body
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestExplainGolden re-derives every golden explanation and compares
// it byte for byte (apart from the checks counter), then re-checks the
// core's single-removal minimality independently of Explain.
func TestExplainGolden(t *testing.T) {
	specs := goldenSpecs(t)
	if *updateGolden {
		var buf bytes.Buffer
		for _, s := range specs {
			ex, err := consistency.Explain(s.d, s.set, consistency.Options{})
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			js, err := goldenJSON(ex)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			fmt.Fprintf(&buf, "%s\t%s\n", s.name, js)
		}
		if err := os.WriteFile(explainGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden := readGolden(t)
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			if s.slow && testing.Short() {
				t.Skip("explaining this spec takes seconds")
			}
			want, ok := golden[s.name]
			if !ok {
				t.Fatalf("no golden entry; regenerate with -update")
			}
			ex, err := consistency.Explain(s.d, s.set, consistency.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if ex.Verdict != consistency.Inconsistent {
				t.Fatalf("verdict %v, want Inconsistent", ex.Verdict)
			}
			got, err := goldenJSON(ex)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("explanation differs from golden:\n got %s\nwant %s", got, want)
			}
			consistency.RequireMinimalCore(t, s.d, s.set, ex.Core)
		})
	}
}

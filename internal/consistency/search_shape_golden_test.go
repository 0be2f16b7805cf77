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
	"repro/internal/obs"
)

const searchShapeGoldenPath = "testdata/search-shape.golden"

// searchShapeSpecs lists seeded Figure 3/4 and Theorem 3.5 instances
// whose integer searches the search-shape golden pins: CNF and QBF
// encodings that branch on conditionals, Figure 3 PDE and multi-
// attribute instances with prequadratic rows, the Diophantine pair
// whose 2,000-node searches switch the simplex on, and the
// root-decided hierarchical and tractable families.
func searchShapeSpecs() []certSpec {
	var out []certSpec
	add := func(name string, in experiments.Instance) {
		out = append(out, certSpec{name: name, in: in, opts: in.Opts})
	}
	for seed := int64(1); seed <= 3; seed++ {
		add(fmt.Sprintf("cnf/n=4/seed=%d", seed), experiments.Fig3Unary(rand.New(rand.NewSource(seed)), 4))
		add(fmt.Sprintf("qbf-reg/m=2/seed=%d", seed), experiments.Fig3Regular(rand.New(rand.NewSource(seed)), 2))
		add(fmt.Sprintf("qbf-reg/m=3/seed=%d", seed), experiments.Fig3Regular(rand.New(rand.NewSource(seed)), 3))
		add(fmt.Sprintf("subsetsum/seed=%d", seed), experiments.Thm35SubsetSum(rand.New(rand.NewSource(seed)), 4, 256))
	}
	for seed := int64(1); seed <= 2; seed++ {
		add(fmt.Sprintf("dlocal/m=3/seed=%d", seed), experiments.Fig4DLocal(rand.New(rand.NewSource(seed)), 3))
	}
	for seed := int64(2); seed <= 3; seed++ {
		if in, ok := experiments.Fig3PDE(rand.New(rand.NewSource(seed)), 3); ok {
			add(fmt.Sprintf("pde/n=3/seed=%d", seed), in)
		}
	}
	for _, kind := range []string{"sat", "unsat"} {
		add("multimulti/"+kind, experiments.Fig3MultiMulti(kind))
	}
	for _, kind := range []string{"linear-sat", "linear-unsat"} {
		add("diophantine/"+kind, experiments.Fig4Diophantine(kind))
	}
	for _, levels := range []int{2, 3} {
		add(fmt.Sprintf("hierarchical/levels=%d/sat", levels), experiments.Fig4Hierarchical(levels, true))
		add(fmt.Sprintf("hierarchical/levels=%d/unsat", levels), experiments.Fig4Hierarchical(levels, false))
	}
	for _, sat := range []bool{true, false} {
		add(fmt.Sprintf("tractable/width=8/sat=%v", sat), experiments.Thm35Tractable(8, sat))
	}
	return out
}

// searchShapeLine is one golden entry: the check's verdict, effort
// counts (Saturations aside, which counts only the propagation rows
// actually visited), witness and certificate, then the explanation
// with the solver effort its sub-decisions spent.
type searchShapeLine struct {
	Verdict     string
	Stats       consistency.Stats
	Witness     string
	Certificate json.RawMessage
	Explanation consistency.Explanation
	ExplainILP  map[string]int64
}

func searchShape(s certSpec) (string, error) {
	res, err := consistency.Check(s.in.D, s.in.Set, s.opts)
	if err != nil {
		return "", err
	}
	line := searchShapeLine{Verdict: res.Verdict.String(), Stats: res.Stats}
	line.Stats.Saturations = 0
	if res.Witness != nil {
		line.Witness = res.Witness.XML()
	}
	if line.Certificate, err = json.Marshal(res.Certificate); err != nil {
		return "", err
	}
	opts := s.opts
	opts.Obs = obs.New()
	if line.Explanation, err = consistency.Explain(s.in.D, s.in.Set, opts); err != nil {
		return "", err
	}
	line.ExplainILP = map[string]int64{}
	for _, name := range []string{"ilp.nodes", "ilp.propagation_passes", "ilp.branches", "ilp.lp_calls", "ilp.pivots", "ilp.max_depth"} {
		line.ExplainILP[name] = opts.Obs.Counter(name)
	}
	b, err := json.Marshal(line)
	return string(b), err
}

// TestSearchShapeGolden pins the shape of every integer search behind
// the golden set's checks and explanations — verdicts, node, branch,
// propagation-round, depth, LP and pivot counts, witnesses and
// certificates — byte for byte, so a faster solver must take exactly
// the search it took before. Regenerate it (-update) only when a
// search is meant to change.
func TestSearchShapeGolden(t *testing.T) {
	specs := searchShapeSpecs()
	if *updateGolden {
		var buf bytes.Buffer
		for _, s := range specs {
			line, err := searchShape(s)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			fmt.Fprintf(&buf, "%s\t%s\n", s.name, line)
		}
		if err := os.WriteFile(searchShapeGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(searchShapeGoldenPath)
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
		got, err := searchShape(s)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if want := golden[s.name]; got != want {
			t.Errorf("%s: search shape changed\n got: %s\nwant: %s", s.name, got, want)
		}
	}
}

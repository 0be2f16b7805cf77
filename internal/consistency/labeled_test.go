package consistency_test

// The profile-label sweep lives in the external test package because
// the Figure 4 generator (internal/experiments) imports consistency.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/consistency"
	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/experiments"
)

// labeledFixture is one specification of the profile-label sweep.
type labeledFixture struct {
	name string
	d    *dtd.DTD
	set  *constraint.Set
}

// labeledFixtures collects every testdata DTD/constraint pair plus the
// Figure 4 hierarchical chains of 1–6 levels (both satisfiable and
// not), the shapes that reach every pprof wrap site: lint, prover,
// the ilp phase, and the per-scope labels of the sequential and
// parallel relative routes.
func labeledFixtures(t *testing.T) []labeledFixture {
	t.Helper()
	dir := filepath.Join("..", "..", "testdata")
	dtds, err := filepath.Glob(filepath.Join(dir, "*.dtd"))
	if err != nil || len(dtds) == 0 {
		t.Fatalf("no testdata DTDs found: %v", err)
	}
	var out []labeledFixture
	for _, dtdPath := range dtds {
		base := strings.TrimSuffix(filepath.Base(dtdPath), ".dtd")
		src, err := os.ReadFile(dtdPath)
		if err != nil {
			t.Fatal(err)
		}
		d, err := dtd.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", dtdPath, err)
		}
		keys, err := filepath.Glob(filepath.Join(dir, base+"*.keys"))
		if err != nil {
			t.Fatal(err)
		}
		for _, keyPath := range keys {
			ksrc, err := os.ReadFile(keyPath)
			if err != nil {
				t.Fatal(err)
			}
			set, err := constraint.ParseSet(string(ksrc))
			if err != nil {
				t.Fatalf("%s: %v", keyPath, err)
			}
			if set.Validate(d) != nil {
				continue
			}
			out = append(out, labeledFixture{filepath.Base(keyPath), d, set})
		}
	}
	for levels := 1; levels <= 6; levels++ {
		for _, sat := range []bool{true, false} {
			in := experiments.Fig4Hierarchical(levels, sat)
			out = append(out, labeledFixture{fmt.Sprintf("fig4-hier-%d-sat=%t", levels, sat), in.D, in.Set})
		}
	}
	return out
}

// TestProfileLabelPreservesOutcome pins that running a check under
// pprof labels changes nothing observable: for every fixture, at
// Parallelism 1 and 4, with and without the prover, the labeled run's
// verdict, method, and certificate bytes match the unlabeled run's.
func TestProfileLabelPreservesOutcome(t *testing.T) {
	for _, fx := range labeledFixtures(t) {
		for _, par := range []int{1, 4} {
			for _, explain := range []bool{false, true} {
				label := fmt.Sprintf("%s/parallel=%d/explain=%t", fx.name, par, explain)
				opts := consistency.Options{Parallelism: par, Explain: explain}
				plain, err := consistency.Check(fx.d, fx.set, opts)
				if err != nil {
					t.Fatalf("%s: unlabeled Check: %v", label, err)
				}
				opts.ProfileLabel = "spec-test"
				lab, err := consistency.Check(fx.d, fx.set, opts)
				if err != nil {
					t.Fatalf("%s: labeled Check: %v", label, err)
				}
				if lab.Verdict != plain.Verdict {
					t.Fatalf("%s: labeled verdict = %v, unlabeled = %v", label, lab.Verdict, plain.Verdict)
				}
				if lab.Method != plain.Method {
					t.Errorf("%s: labeled method = %q, unlabeled = %q", label, lab.Method, plain.Method)
				}
				if got, want := certBytes(t, lab), certBytes(t, plain); got != want {
					t.Errorf("%s: certificate differs\nlabeled:   %s\nunlabeled: %s", label, got, want)
				}
			}
		}
	}
}

// certBytes marshals a result's certificate for byte comparison.
func certBytes(t *testing.T, res consistency.Result) string {
	t.Helper()
	b, err := json.Marshal(res.Certificate)
	if err != nil {
		t.Fatalf("marshal certificate: %v", err)
	}
	return string(b)
}

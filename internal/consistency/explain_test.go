package consistency

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/certificate"
	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/prover"
)

func loadTestdataSpec(t testing.TB, dtdName, keysName string) (*dtd.DTD, *constraint.Set) {
	t.Helper()
	dir := filepath.Join("..", "..", "testdata")
	db, err := os.ReadFile(filepath.Join(dir, dtdName+".dtd"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := dtd.Parse(string(db))
	if err != nil {
		t.Fatal(err)
	}
	kb, err := os.ReadFile(filepath.Join(dir, keysName+".keys"))
	if err != nil {
		t.Fatal(err)
	}
	set, err := constraint.ParseSet(string(kb))
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(d); err != nil {
		t.Fatal(err)
	}
	return d, set
}

// requireMinimalCore checks the single-removal minimality property:
// the core subset is inconsistent, and removing any single member
// (where removal keeps Σ well-formed) makes the verdict
// non-Inconsistent.
func requireMinimalCore(t *testing.T, d *dtd.DTD, set *constraint.Set, core []int) {
	t.Helper()
	if len(core) == 0 {
		t.Fatal("empty unsat core")
	}
	build := func(skip int) *constraint.Set {
		out := &constraint.Set{}
		for i, k := range set.Keys {
			if i != skip && containsIdx(core, i) {
				out.AddKey(k)
			}
		}
		for i, in := range set.Incls {
			if len(set.Keys)+i != skip && containsIdx(core, len(set.Keys)+i) {
				out.AddInclusion(in)
			}
		}
		return out
	}
	opts := Options{SkipWitness: true, SkipCertificate: true}
	full := build(-1)
	if full.Validate(d) != nil {
		t.Fatal("core subset is not a well-formed constraint set")
	}
	res, err := Check(d, full, opts)
	if err != nil || res.Verdict != Inconsistent {
		t.Fatalf("core subset is not inconsistent: %v %v", res.Verdict, err)
	}
	for _, c := range core {
		reduced := build(c)
		if reduced.Validate(d) != nil {
			continue // removal would orphan a paired constraint
		}
		r, err := Check(d, reduced, opts)
		if err != nil {
			t.Fatalf("core minus Σ[%d]: %v", c, err)
		}
		if r.Verdict == Inconsistent {
			t.Errorf("core is not minimal: still inconsistent without Σ[%d] (%s)",
				c, prover.ConstraintAt(set, c))
		}
	}
}

func containsIdx(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

func TestExplainGeography(t *testing.T) {
	d, set := loadTestdataSpec(t, "geography", "geography")
	ex, err := Explain(d, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Verdict != Inconsistent {
		t.Fatalf("verdict %v, want Inconsistent", ex.Verdict)
	}
	requireMinimalCore(t, d, set, ex.Core)
	if len(ex.Derivation) == 0 {
		t.Fatal("prover-refutable spec explained without a derivation")
	}
	if ex.Certificate == nil || ex.Certificate.Refutation == nil ||
		ex.Certificate.Refutation.Source != certificate.SourceProver {
		t.Fatalf("expected a prover refutation certificate, got %s", ex.Certificate)
	}
	// The remapped core derivation must replay against the FULL spec.
	if err := certificate.Verify(d, set, ex.Certificate); err != nil {
		t.Fatalf("core derivation does not replay against the full spec: %v", err)
	}
	if len(ex.Hints) == 0 {
		t.Fatal("no repair hints")
	}
	for _, h := range ex.Hints {
		if h.Action != "drop" && h.Action != "weaken" {
			t.Errorf("hint action %q not in {drop, weaken}", h.Action)
		}
		if h.Cores < 1 || h.Cores > ex.Cores {
			t.Errorf("hint core count %d out of range [1,%d]", h.Cores, ex.Cores)
		}
		if !containsIdx(ex.Core, h.Constraint) && h.Cores < 1 {
			t.Errorf("hint cites Σ[%d] appearing in no core", h.Constraint)
		}
	}
	if len(ex.CoreConstraints) != len(ex.Core) {
		t.Errorf("rendered core length %d != core length %d", len(ex.CoreConstraints), len(ex.Core))
	}
}

func TestExplainSchoolExtended(t *testing.T) {
	d, set := loadTestdataSpec(t, "school", "school-extended")
	ex, err := Explain(d, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Verdict != Inconsistent {
		t.Fatalf("verdict %v, want Inconsistent", ex.Verdict)
	}
	requireMinimalCore(t, d, set, ex.Core)
	if len(ex.Derivation) == 0 {
		t.Fatal("no derivation for the regular-dialect refutation")
	}
	if err := certificate.Verify(d, set, ex.Certificate); err != nil {
		t.Fatalf("certificate does not verify: %v", err)
	}
}

func TestExplainConsistentSpec(t *testing.T) {
	d, set := loadTestdataSpec(t, "library", "library")
	ex, err := Explain(d, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Verdict != Consistent {
		t.Fatalf("verdict %v, want Consistent", ex.Verdict)
	}
	if len(ex.Core) != 0 || len(ex.Derivation) != 0 || len(ex.Hints) != 0 {
		t.Errorf("consistent spec explained with core/derivation/hints: %+v", ex)
	}
}

func TestExplainCheckShortCircuit(t *testing.T) {
	// With Explain set, Check itself must short-circuit before the ILP
	// on prover-refutable specs and record it in Stats. school-extended
	// is the spec no sound lint rule covers, so the prover hook — not
	// the lint prepass — is what fires here.
	d, set := loadTestdataSpec(t, "school", "school-extended")
	res, err := Check(d, set, Options{Explain: true, SkipWitness: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Inconsistent {
		t.Fatalf("verdict %v, want Inconsistent", res.Verdict)
	}
	if !res.Stats.ProverShortCircuit {
		t.Error("prover short-circuit not recorded in Stats")
	}
	if res.Stats.ProverFacts == 0 {
		t.Error("Stats.ProverFacts is zero after a saturation")
	}
	if res.Stats.ILPNodes != 0 || res.Stats.LPCalls != 0 {
		t.Errorf("ILP ran despite the prover refutation: %+v", res.Stats)
	}
	if res.Certificate == nil || res.Certificate.Refutation == nil ||
		res.Certificate.Refutation.Source != certificate.SourceProver {
		t.Fatalf("expected a prover certificate, got %s", res.Certificate)
	}
	if err := certificate.Verify(d, set, res.Certificate); err != nil {
		t.Fatalf("pipeline prover certificate does not verify: %v", err)
	}

	// Explain off: the same spec must decide without the prover.
	res2, err := Check(d, set, Options{SkipWitness: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.ProverFacts != 0 || res2.Stats.ProverShortCircuit {
		t.Errorf("prover ran with Explain off: %+v", res2.Stats)
	}
	if res2.Verdict != Inconsistent {
		t.Fatalf("verdict without prover %v, want Inconsistent", res2.Verdict)
	}
}

// flipContext is a context that never fires on its own, but whose Err
// turns Canceled after a fixed number of Err calls — an abort that
// lands at a chosen point of an explanation, independent of timing.
type flipContext struct {
	context.Context
	calls, after int
}

func (c *flipContext) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestExplainStopsOnAbort: once the context fires after the initial
// check, Explain returns the abort and the minimizer decides no further
// subset — it consults the context once, before its first saturation,
// and runs neither saturations nor checks after that.
func TestExplainStopsOnAbort(t *testing.T) {
	for _, p := range []struct{ dtd, keys string }{
		{"geography", "geography"},
		{"school", "school-extended"},
	} {
		t.Run(p.keys, func(t *testing.T) {
			d, set := loadTestdataSpec(t, p.dtd, p.keys)
			// Count the initial check's own Err calls.
			probe := &flipContext{Context: context.Background(), after: math.MaxInt}
			if _, err := Check(d, set, Options{Ctx: probe, SkipWitness: true, Explain: true}); err != nil {
				t.Fatal(err)
			}
			ctx := &flipContext{Context: context.Background(), after: probe.calls}
			_, err := Explain(d, set, Options{Ctx: ctx})
			if !Aborted(err) || !errors.Is(err, context.Canceled) {
				t.Fatalf("Explain after the context fired returned %v, want a canceled abort", err)
			}
			if extra := ctx.calls - probe.calls; extra != 1 {
				t.Errorf("minimizer consulted the context %d times after the initial check, want 1", extra)
			}

			// White box: a minimizer whose context is already dead
			// decides nothing at all.
			dead := &flipContext{Context: context.Background()}
			m := newMinimizer(compile(d), set, Options{Ctx: dead})
			core := m.shrink(allIndices(set))
			m.hints(core)
			if !Aborted(m.err) {
				t.Fatalf("minimizer error %v, want an abort", m.err)
			}
			if m.checks != 0 || len(m.decided) != 0 || dead.calls != 1 {
				t.Errorf("aborted minimizer kept working: %d checks, %d memoized subsets, %d context polls",
					m.checks, len(m.decided), dead.calls)
			}
		})
	}
}

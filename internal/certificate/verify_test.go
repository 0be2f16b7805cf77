package certificate_test

import (
	"math/rand"
	"testing"

	"repro/internal/certificate"
	"repro/internal/consistency"
	"repro/internal/constraint"
	"repro/internal/digest"
	"repro/internal/dtd"
	"repro/internal/experiments"
)

// hardCase is one certificate form a hard-replay instance yields,
// stamped with its spec digest the way the serving path stamps it.
type hardCase struct {
	name   string
	d      *dtd.DTD
	set    *constraint.Set
	digest string
	cert   *certificate.Certificate
}

// hardCases decides one instance per certificate form the verdict
// cache re-proves on hard specs: per-scope vectors (Theorem 4.3), a
// regular-encoding vector and a solver refutation pinned by its system
// digest.
func hardCases(tb testing.TB) []hardCase {
	tb.Helper()
	instances := []struct {
		name string
		in   experiments.Instance
	}{
		{"scope-vectors", experiments.Fig4Hierarchical(10, true)},
		{"vector", experiments.Fig3Regular(rand.New(rand.NewSource(1)), 3)},
		{"infeasible", experiments.Fig3Regular(rand.New(rand.NewSource(2)), 3)},
	}
	var out []hardCase
	for _, x := range instances {
		res, err := consistency.Check(x.in.D, x.in.Set, consistency.Options{})
		if err != nil || res.Verdict != x.in.Expect || res.Certificate == nil {
			tb.Fatalf("%s: verdict %v, err %v, certificate %v", x.name, res.Verdict, err, res.Certificate)
		}
		c := res.Certificate
		form := ""
		switch {
		case c.Witness != nil:
			form = string(c.Witness.Form)
		case c.Refutation.Source == certificate.SourceILP:
			form = "infeasible"
		}
		if form != x.name {
			tb.Fatalf("%s: instance yields a %s certificate (%s)", x.name, c.Kind(), c)
		}
		dg := digest.Spec(x.in.D, x.in.Set)
		c.SpecDigest = dg
		out = append(out, hardCase{x.name, x.in.D, x.in.Set, dg, c})
	}
	return out
}

// proverCase explains Thm35Tractable(32, false), whose explanation
// certificate is a prover refutation, and stamps it with its spec
// digest.
func proverCase(tb testing.TB) hardCase {
	tb.Helper()
	in := experiments.Thm35Tractable(32, false)
	ex, err := consistency.Explain(in.D, in.Set, consistency.Options{})
	if err != nil || ex.Certificate == nil || ex.Certificate.Refutation == nil ||
		ex.Certificate.Refutation.Source != certificate.SourceProver {
		tb.Fatalf("prover: err %v, certificate %v", err, ex.Certificate)
	}
	dg := digest.Spec(in.D, in.Set)
	ex.Certificate.SpecDigest = dg
	return hardCase{"prover", in.D, in.Set, dg, ex.Certificate}
}

// BenchmarkVerify prices one verified cache hit's re-proof per
// certificate form, with the spec digest supplied by the caller as
// xmlspec.Spec.VerifyCertificate supplies its memo, and the replay of
// a prover refutation.
func BenchmarkVerify(b *testing.B) {
	for _, hc := range append(hardCases(b), proverCase(b)) {
		b.Run(hc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := certificate.VerifyDigested(hc.d, hc.set, hc.cert, hc.digest); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestVerifyScopeVectorsAllocs pins the allocation cost of re-proving
// the Fig4Hierarchical(10) scope-vector certificate. Almost all of it
// is the per-scope re-encoding a verifier has to pay; scope analysis,
// validation and the stamp check must not grow it.
func TestVerifyScopeVectorsAllocs(t *testing.T) {
	const maxAllocs = 1171
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	hc := hardCases(t)[0]
	n := testing.AllocsPerRun(20, func() {
		if err := certificate.VerifyDigested(hc.d, hc.set, hc.cert, hc.digest); err != nil {
			t.Fatal(err)
		}
	})
	if n > maxAllocs {
		t.Errorf("verifying the %s certificate allocates %.0f times, want ≤ %d", hc.name, n, maxAllocs)
	}
}

// TestVerifyProverAllocs pins the allocation cost of replaying the
// Thm35Tractable(32, false) explanation certificate's derivation. The
// replay reads the DTD folds from one fresh prover Analysis; a
// name-keyed fold or a second compile of a region automaton would
// grow it.
func TestVerifyProverAllocs(t *testing.T) {
	const maxAllocs = 58
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	hc := proverCase(t)
	n := testing.AllocsPerRun(20, func() {
		if err := certificate.VerifyDigested(hc.d, hc.set, hc.cert, hc.digest); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("verifying the prover certificate allocates %.0f times", n)
	if n > maxAllocs {
		t.Errorf("verifying the %s certificate allocates %.0f times, want ≤ %d", hc.name, n, maxAllocs)
	}
}

func TestVerifyDigestedChecksStamp(t *testing.T) {
	for _, hc := range append(hardCases(t), proverCase(t)) {
		if err := certificate.Verify(hc.d, hc.set, hc.cert); err != nil {
			t.Errorf("%s: Verify: %v", hc.name, err)
		}
		if err := certificate.VerifyDigested(hc.d, hc.set, hc.cert, "spec-0000000000000000"); err == nil {
			t.Errorf("%s: a certificate stamped %s verified against another digest", hc.name, hc.digest)
		}
	}
}

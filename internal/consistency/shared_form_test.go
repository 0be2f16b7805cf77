package consistency_test

import (
	"testing"

	"repro/internal/consistency"
	"repro/internal/constraint"
)

// TestSharedFormMatchesFreshCheck decides every well-formed subset of
// every explain-golden spec through one compiled form of its DTD —
// forwards, then backwards over the now warm form — with and without
// the prover, and demands the verdict, method, class, diagnosis and
// stats of a fresh Check of the same subset.
func TestSharedFormMatchesFreshCheck(t *testing.T) {
	optsList := []consistency.Options{
		{SkipWitness: true, SkipCertificate: true},
		{SkipWitness: true, SkipCertificate: true, Explain: true},
	}
	for _, g := range goldenSpecs(t) {
		// The slow spec alone takes half a minute under the race
		// detector, which this single-goroutine comparison does not
		// need.
		if g.slow && (testing.Short() || raceEnabled) {
			continue
		}
		t.Run(g.name, func(t *testing.T) {
			check := consistency.SharedChecker(g.d)
			n := len(g.set.Keys) + len(g.set.Incls)
			decided := 0
			for pass := 0; pass < 2; pass++ {
				for m := uint64(0); m < 1<<n; m++ {
					mask := m
					if pass == 1 {
						mask = 1<<n - 1 - m
					}
					sub := maskSubset(g.set, mask)
					if sub.Validate(g.d) != nil {
						continue
					}
					for _, opts := range optsList {
						got, gerr := check(sub, opts)
						want, werr := consistency.Check(g.d, sub, opts)
						if (gerr == nil) != (werr == nil) {
							t.Fatalf("subset %b: shared error %v, fresh %v", mask, gerr, werr)
						}
						if got.Verdict != want.Verdict || got.Method != want.Method || got.Class != want.Class ||
							got.Diagnosis != want.Diagnosis || got.Stats != want.Stats {
							t.Fatalf("subset %b (explain=%v): shared form decided\n %v %q %q %q %+v\nfresh Check\n %v %q %q %q %+v",
								mask, opts.Explain, got.Verdict, got.Method, got.Class, got.Diagnosis, got.Stats,
								want.Verdict, want.Method, want.Class, want.Diagnosis, want.Stats)
						}
						decided++
					}
				}
			}
			if decided == 0 {
				t.Fatal("no well-formed subset was decided")
			}
		})
	}
}

// maskSubset returns the constraints whose bits are set in mask, keys
// first, then inclusions (the prover's canonical Σ order).
func maskSubset(set *constraint.Set, mask uint64) *constraint.Set {
	out := &constraint.Set{}
	for i, k := range set.Keys {
		if mask&(1<<i) != 0 {
			out.AddKey(k)
		}
	}
	for i, in := range set.Incls {
		if mask&(1<<(len(set.Keys)+i)) != 0 {
			out.AddInclusion(in)
		}
	}
	return out
}

package xmlspec

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/consistency"
	"repro/internal/experiments"
	"repro/internal/ilp"
)

// ceilingCase is one timed gate on a hard Figure 3/4 instance: the
// fastest of runs checks must finish within ceiling.
type ceilingCase struct {
	name    string
	in      experiments.Instance
	ceiling time.Duration
	runs    int
}

// ceilingCases builds the gated instances. The two Figure 3 CNF
// instances are drawn from one seed-2002 stream, n=4 first; the n=6
// one runs the simplex at every stride level, where the int64 fast
// path takes ~0.4s and the exact big.Rat tableau well over the 1s
// ceiling.
func ceilingCases() []ceilingCase {
	rng := rand.New(rand.NewSource(2002))
	unary4 := experiments.Fig3Unary(rng, 4)
	lpFast := experiments.Fig3Unary(rng, 6)
	lpFast.Opts.ILP.LP = ilp.LPAlways
	return []ceilingCase{
		{"fig3/unary-n=4", unary4, 15 * time.Millisecond, 9},
		{"fig4/hierarchical-levels=4", experiments.Fig4Hierarchical(4, true), 1500 * time.Microsecond, 9},
		{"fig4/hierarchical-levels=6/seq", experiments.Fig4Hierarchical(6, true), 3 * time.Millisecond, 9},
		{"fig3/unary-n=6/lp=fast", lpFast, time.Second, 5},
	}
}

// checkCeilingCase runs c's check once, failing the test on an error
// or a wrong verdict, and returns its stats and wall time.
func checkCeilingCase(t *testing.T, c ceilingCase) (consistency.Stats, time.Duration) {
	t.Helper()
	opts := c.in.Opts
	opts.SkipWitness = true
	opts.SkipCertificate = true
	start := time.Now()
	res, err := consistency.Check(c.in.D, c.in.Set, opts)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != c.in.Expect {
		t.Fatalf("verdict %v, want %v", res.Verdict, c.in.Expect)
	}
	return res.Stats, elapsed
}

// TestCheckCeilings bounds the check time of the hard Figure 3/4
// families outright. Host steal and scheduling only ever slow a run
// down, so the best of several runs is the robust reading.
func TestCheckCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation slows checks far past the ceilings")
	}
	for _, c := range ceilingCases() {
		t.Run(c.name, func(t *testing.T) {
			best := time.Duration(math.MaxInt64)
			for i := 0; i < c.runs; i++ {
				if _, d := checkCeilingCase(t, c); d < best {
					best = d
				}
			}
			t.Logf("best of %d: %v (ceiling %v)", c.runs, best, c.ceiling)
			if best > c.ceiling {
				t.Errorf("best of %d runs took %v, ceiling %v", c.runs, best, c.ceiling)
			}
		})
	}
}

// TestCeilingFastPathSentinel is the deterministic twin of the lp=fast
// ceiling: every simplex relaxation of that instance must complete on
// the int64 fast path, whatever the machine's speed.
func TestCeilingFastPathSentinel(t *testing.T) {
	cs := ceilingCases()
	st, _ := checkCeilingCase(t, cs[len(cs)-1]) // the lp=fast case
	t.Logf("LP calls %d, fast path %d, big.Rat fallbacks %d", st.LPCalls, st.FastPathLPs, st.RatFallbacks)
	if st.LPCalls == 0 || st.FastPathLPs != st.LPCalls || st.RatFallbacks != 0 {
		t.Error("want at least one LP call, every one completed on the int64 fast path")
	}
}

package xmlspec

import (
	"math/rand"
	"os"
	"testing"

	"repro/internal/experiments"
)

// parseCase is one specification in surface syntax.
type parseCase struct {
	name, dtd, constraints string
}

// parseCases returns the paper's specifications from testdata plus one
// specification of each hard family the serving benchmark replays
// (Fig3Unary n=6, Fig3Regular m=3, Fig4DLocal m=3, Thm35SubsetSum n=5,
// Fig4Hierarchical with 10 levels), rendered the way a client sends
// them.
func parseCases(tb testing.TB) []parseCase {
	tb.Helper()
	read := func(name string) string {
		b, err := os.ReadFile("testdata/" + name)
		if err != nil {
			tb.Fatal(err)
		}
		return string(b)
	}
	cases := []parseCase{
		{"fig2/library", read("library.dtd"), read("library.keys")},
		{"fig1/school", read("school.dtd"), read("school.keys")},
		{"fig1/school-extended", read("school.dtd"), read("school-extended.keys")},
		{"fig1/geography", read("geography.dtd"), read("geography.keys")},
	}
	rng := rand.New(rand.NewSource(7))
	for _, in := range []experiments.Instance{
		experiments.Fig3Unary(rng, 6),
		experiments.Fig3Regular(rng, 3),
		experiments.Fig4DLocal(rng, 3),
		experiments.Thm35SubsetSum(rng, 5, 512),
		experiments.Fig4Hierarchical(10, true),
	} {
		cases = append(cases, parseCase{in.Name, in.D.String(), in.Set.String()})
	}
	return cases
}

// maxParseAllocs pins the allocations of xmlspec.Parse on each
// parseCases specification: the DTD, the constraint set and their
// validation. `make gates` runs it without the race detector. The
// rune-slice, Fields-splitting parsers took 116, 422, 525, 128, 2396,
// 358, 1102, 367 and 662.
var maxParseAllocs = map[string]float64{
	"fig2/library":           24,
	"fig1/school":            73,
	"fig1/school-extended":   91,
	"fig1/geography":         26,
	"cnf/n=6":                37,
	"qbf-reg/m=3":            70,
	"qbf-hrc/m=3":            37,
	"subsetsum/n=5,max=512":  28,
	"hrc/levels=10,sat=true": 34,
}

func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	for _, c := range parseCases(t) {
		n := testing.AllocsPerRun(20, func() {
			if _, err := Parse(c.dtd, c.constraints); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs", c.name, n)
		if max, ok := maxParseAllocs[c.name]; !ok || n > max {
			t.Errorf("parsing %s allocates %.0f times, want ≤ %v", c.name, n, max)
		}
	}
}

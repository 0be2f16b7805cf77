package cardinality_test

import (
	"math/rand"
	"testing"

	"repro/internal/cardinality"
	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/experiments"
	"repro/internal/scope"
)

// encodeFamilies are the specs BenchmarkEncode and TestEncodeAllocs
// compile: the library spec (Figure 2), the Fig3Unary n=6 draw of seed
// 29 (absolute route), a Fig3Regular m=3 draw (regular route), the
// school spec with its path regions, and the root scope problem of a
// Fig4DLocal m=3 draw (the relative route's per-scope compile).
func encodeFamilies(tb testing.TB) []struct {
	name    string
	d       *dtd.DTD
	set     *constraint.Set
	regular bool
} {
	tb.Helper()
	library, librarySet := loadSpec(tb, "library", "library")
	school, schoolSet := loadSpec(tb, "school", "school")
	unary := experiments.Fig3Unary(rand.New(rand.NewSource(29)), 6)
	reg := experiments.Fig3Regular(rand.New(rand.NewSource(29)), 3)
	dl := experiments.Fig4DLocal(rand.New(rand.NewSource(29)), 3)
	contexts := scope.ContextTypes(dl.D, dl.Set)
	sd, _ := scope.DTD(dl.D, contexts, dl.D.Root)
	local, _ := scope.LocalSet(dl.D, sd, dl.Set, map[string]bool{dl.D.Root: true}, dl.D.Root)
	librarySD, _ := scope.DTD(library, scope.ContextTypes(library, librarySet), library.Root)
	libraryLocal, _ := scope.LocalSet(library, librarySD, librarySet, map[string]bool{library.Root: true}, library.Root)
	return []struct {
		name    string
		d       *dtd.DTD
		set     *constraint.Set
		regular bool
	}{
		{"library", librarySD, libraryLocal, false},
		{"fig3-unary-n=6", unary.D, unary.Set, false},
		{"fig3-regular-m=3", reg.D, reg.Set, true},
		{"school", school, schoolSet, true},
		{"fig4-dlocal-m=3-root", sd, local, false},
	}
}

// BenchmarkEncode times one compile of each family's encoding: the
// narrowing, the flow and C_Σ, everything a verified cache hit redoes.
func BenchmarkEncode(b *testing.B) {
	for _, f := range encodeFamilies(b) {
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if f.regular {
					_, err = cardinality.EncodeRegular(f.d, f.set)
				} else {
					_, err = cardinality.EncodeAbsolute(f.d, f.set)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestEncodeAllocs pins the allocation count of one compile per
// family: the library root scope and Fig3Unary n=6 (seed 29) through
// EncodeAbsolute, and the school spec through EncodeRegular. The
// compilers allocate per table, not per row or symbol, so any new
// per-item allocation shows up here.
func TestEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	pins := map[string]float64{
		"library":        35,
		"fig3-unary-n=6": 78,
		"school":         605,
	}
	for _, f := range encodeFamilies(t) {
		want, ok := pins[f.name]
		if !ok {
			continue
		}
		n := testing.AllocsPerRun(20, func() {
			var err error
			if f.regular {
				_, err = cardinality.EncodeRegular(f.d, f.set)
			} else {
				_, err = cardinality.EncodeAbsolute(f.d, f.set)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per encode", f.name, n)
		if n > want {
			t.Errorf("%s: one encode allocates %.0f times, want ≤ %.0f", f.name, n, want)
		}
	}
}

package digest

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/pathre"
)

var update = flag.Bool("update", false, "rewrite testdata/spec.golden")

// goldenSpec is one named specification of the digest golden file.
type goldenSpec struct {
	name string
	d    *dtd.DTD
	set  *constraint.Set
}

// fileSpecs loads every DTD/constraint pair shipped in the repository's
// testdata directories.
func fileSpecs(t *testing.T) []goldenSpec {
	t.Helper()
	pairs := []struct{ dtd, keys string }{
		{"../../testdata/geography.dtd", "../../testdata/geography.keys"},
		{"../../testdata/library.dtd", "../../testdata/library.keys"},
		{"../../testdata/school.dtd", "../../testdata/school.keys"},
		{"../../testdata/school.dtd", "../../testdata/school-extended.keys"},
		{"../../cmd/speclint/testdata/messy.dtd", "../../cmd/speclint/testdata/messy.keys"},
	}
	var out []goldenSpec
	for _, p := range pairs {
		dsrc, err := os.ReadFile(p.dtd)
		if err != nil {
			t.Fatal(err)
		}
		ksrc, err := os.ReadFile(p.keys)
		if err != nil {
			t.Fatal(err)
		}
		d, set := mustSpec(t, string(dsrc), string(ksrc))
		out = append(out, goldenSpec{filepath.Base(p.dtd) + "+" + filepath.Base(p.keys), d, set})
	}
	return out
}

// randomSpec draws a DTD (recursive ones included) and a constraint
// set mixing absolute, relative, multi-attribute and regular
// constraints. The digest does not require the set to validate, so
// the draw does not try to.
func randomSpec(rng *rand.Rand) (*dtd.DTD, *constraint.Set) {
	d := dtd.Random(rng, dtd.RandomOptions{
		Types:          1 + rng.Intn(7),
		MaxAttrs:       1 + rng.Intn(3),
		MaxExprSize:    1 + rng.Intn(10),
		AllowStar:      rng.Intn(2) == 0,
		AllowRecursion: rng.Intn(3) == 0,
		AllowText:      rng.Intn(2) == 0,
	})
	target := func() constraint.Target {
		name := d.Names[rng.Intn(len(d.Names))]
		attrs := []string{fmt.Sprintf("a%d", rng.Intn(3))}
		if rng.Intn(4) == 0 {
			attrs = append(attrs, fmt.Sprintf("a%d", rng.Intn(3)))
		}
		t := constraint.Target{Type: name, Attrs: attrs}
		if rng.Intn(5) == 0 {
			t.Path = pathre.Concat(pathre.Symbol(d.Root), pathre.Closure(pathre.Wildcard()))
		}
		return t
	}
	ctx := func() string {
		if rng.Intn(2) == 0 {
			return ""
		}
		return d.Names[rng.Intn(len(d.Names))]
	}
	set := &constraint.Set{}
	for i := rng.Intn(4); i > 0; i-- {
		set.AddKey(constraint.Key{Context: ctx(), Target: target()})
	}
	for i := rng.Intn(4); i > 0; i-- {
		set.AddForeignKey(constraint.Inclusion{Context: ctx(), From: target(), To: target()})
	}
	return d, set
}

// TestSpecGolden pins digest.Spec byte for byte: every testdata spec
// and 200 seeded random specs must digest to the values recorded in
// testdata/spec.golden. Regenerate with -update only when the digest
// is meant to change; every stamped certificate and cache key changes
// with it.
func TestSpecGolden(t *testing.T) {
	specs := fileSpecs(t)
	rng := rand.New(rand.NewSource(20021))
	for i := 0; i < 200; i++ {
		d, set := randomSpec(rng)
		specs = append(specs, goldenSpec{fmt.Sprintf("random-%03d", i), d, set})
	}
	var b strings.Builder
	for _, s := range specs {
		fmt.Fprintf(&b, "%s %s\n", s.name, Spec(s.d, s.set))
	}
	path := filepath.Join("testdata", "spec.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(b.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("golden has %d lines, computed %d", len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("digest changed: got %q, want %q", got[i], wantLines[i])
		}
	}
}

func BenchmarkSpec(b *testing.B) {
	d, set := randomSpec(rand.New(rand.NewSource(4)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Spec(d, set)
	}
}

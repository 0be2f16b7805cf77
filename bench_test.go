package xmlspec

// One benchmark family per evaluation artifact of the paper: the
// worked examples (Figures 1 and 2), every column of the complexity
// tables (Figures 3 and 4), the Theorem 3.5 restriction results, the
// Proposition 3.6 implication reduction, and the ablations called out
// in DESIGN.md. `go test -bench=. -benchmem` regenerates the numbers
// recorded in EXPERIMENTS.md; cmd/benchtab prints the same families as
// verdict tables.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/consistency"
	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/experiments"
	"repro/internal/ilp"
	"repro/internal/implication"
	"repro/internal/obs"
	"repro/internal/streamcheck"
	"repro/internal/xmltree"
)

// benchInstance runs one prepared instance per iteration and fails the
// benchmark on a wrong verdict, so timing numbers are also correctness
// evidence.
func benchInstance(b *testing.B, in experiments.Instance) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := in.Check()
		if err != nil {
			b.Fatal(err)
		}
		if res.Verdict != in.Expect {
			b.Fatalf("%s: verdict %v, want %v", in.Name, res.Verdict, in.Expect)
		}
	}
}

func benchSpec(b *testing.B, dtdSrc, consSrc string, expect Verdict) {
	b.Helper()
	spec := MustParse(dtdSrc, consSrc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := spec.Consistent(&Options{SkipWitness: true})
		if err != nil {
			b.Fatal(err)
		}
		if res.Verdict != expect {
			b.Fatalf("verdict %v, want %v", res.Verdict, expect)
		}
	}
}

// ---- Figure 1: the worked examples of Section 1 ----

func BenchmarkFig1SchoolConsistent(b *testing.B) {
	benchSpec(b, schoolDTD, schoolConstraints, Consistent)
}

func BenchmarkFig1SchoolExtendedInconsistent(b *testing.B) {
	benchSpec(b, schoolDTD, schoolConstraints+`
r._*.dbLab.acc.num -> r._*.dbLab.acc
r.faculty.prof.record.id ⊆ r._*.dbLab.acc.num
`, Inconsistent)
}

func BenchmarkFig1Geography(b *testing.B) {
	benchSpec(b, `
<!ELEMENT db (country+)>
<!ELEMENT country (province+, capital+)>
<!ELEMENT province (capital, city*)>
<!ELEMENT capital EMPTY>
<!ELEMENT city EMPTY>
<!ATTLIST country name CDATA #REQUIRED>
<!ATTLIST province name CDATA #REQUIRED>
<!ATTLIST capital inProvince CDATA #REQUIRED>
`, `
country.name -> country
country(province.name -> province)
country(capital.inProvince -> capital)
country(capital.inProvince ⊆ province.name)
`, Inconsistent)
}

// ---- Figure 2: the library schemas of Section 4.2 ----

const benchLibraryDTD = `
<!ELEMENT library (book+)>
<!ELEMENT book (author+, chapter+)>
<!ELEMENT author EMPTY>
<!ELEMENT chapter (section*)>
<!ELEMENT section EMPTY>
<!ATTLIST book isbn CDATA #REQUIRED>
<!ATTLIST author name CDATA #REQUIRED>
<!ATTLIST chapter number CDATA #REQUIRED>
<!ATTLIST section title CDATA #REQUIRED>
`

const benchLibraryConstraints = `
library(book.isbn -> book)
book(author.name -> author)
book(chapter.number -> chapter)
chapter(section.title -> section)
`

func BenchmarkFig2LibraryHierarchical(b *testing.B) {
	benchSpec(b, benchLibraryDTD, benchLibraryConstraints, Consistent)
}

// BenchmarkCheck is the observability-overhead reference point on the
// Figure 2 library spec: the obs-disabled variant must allocate exactly
// what it did before the tracing hooks existed (every hook is a
// nil-receiver check, and SkipCertificate turns off all provenance
// construction), the with-certificate variant prices the default
// certificate capture, and the obs-enabled variant shows the price of
// a full trace. Compare with `go test -bench BenchmarkCheck -benchmem`.
func BenchmarkCheck(b *testing.B) {
	b.Run("obs-disabled", func(b *testing.B) {
		spec := MustParse(benchLibraryDTD, benchLibraryConstraints)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := spec.Consistent(&Options{SkipWitness: true, SkipCertificate: true})
			if err != nil || res.Verdict != Consistent {
				b.Fatalf("%v %v", res.Verdict, err)
			}
		}
	})
	b.Run("with-certificate", func(b *testing.B) {
		spec := MustParse(benchLibraryDTD, benchLibraryConstraints)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := spec.Consistent(&Options{SkipWitness: true})
			if err != nil || res.Verdict != Consistent || res.Certificate == nil {
				b.Fatalf("%v %v %v", res.Verdict, res.Certificate, err)
			}
		}
	})
	b.Run("obs-enabled", func(b *testing.B) {
		spec := MustParse(benchLibraryDTD, benchLibraryConstraints)
		spec.SetObserver(obs.New())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := spec.Consistent(&Options{SkipWitness: true, SkipCertificate: true})
			if err != nil || res.Verdict != Consistent {
				b.Fatalf("%v %v", res.Verdict, err)
			}
		}
	})
}

// BenchmarkLintPrepassShortCircuit measures what the speclint prepass
// buys on a spec it can refute structurally: the geography example of
// Figure 1, whose cardinality clash SL201 proves without any encoding.
// "prepass" is the default Check; "full-path" disables the linter and
// pays for the hierarchical decomposition plus solver. The gap is
// orders of magnitude, which is why the prepass is on by default.
func BenchmarkLintPrepassShortCircuit(b *testing.B) {
	const geoDTD = `
<!ELEMENT db (country+)>
<!ELEMENT country (province+, capital+)>
<!ELEMENT province (capital, city*)>
<!ELEMENT capital EMPTY>
<!ELEMENT city EMPTY>
<!ATTLIST country name CDATA #REQUIRED>
<!ATTLIST province name CDATA #REQUIRED>
<!ATTLIST capital inProvince CDATA #REQUIRED>
`
	const geoKeys = `
country.name -> country
country(province.name -> province)
country(capital.inProvince -> capital)
country(capital.inProvince ⊆ province.name)
`
	for _, variant := range []struct {
		name     string
		skipLint bool
	}{{"prepass", false}, {"full-path", true}} {
		b.Run(variant.name, func(b *testing.B) {
			spec := MustParse(geoDTD, geoKeys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := spec.Consistent(&Options{SkipWitness: true, SkipLint: variant.skipLint})
				if err != nil || res.Verdict != Inconsistent {
					b.Fatalf("%v %v", res.Verdict, err)
				}
			}
		})
	}
}

// ---- Figure 3: absolute constraint classes ----

func BenchmarkFig3ACKFK(b *testing.B) {
	for _, n := range []int{2, 4, 6, 8} {
		rng := rand.New(rand.NewSource(2002))
		in := experiments.Fig3Unary(rng, n)
		b.Run(fmt.Sprintf("cnf-n=%d", n), func(b *testing.B) { benchInstance(b, in) })
	}
}

func BenchmarkFig3PKMulti(b *testing.B) {
	rng := rand.New(rand.NewSource(2002))
	for _, n := range []int{1, 2, 3, 4} {
		in, ok := experiments.Fig3PDE(rng, n)
		if !ok {
			continue
		}
		b.Run(fmt.Sprintf("pde-n=%d", n), func(b *testing.B) { benchInstance(b, in) })
	}
}

func BenchmarkFig3Reg(b *testing.B) {
	rng := rand.New(rand.NewSource(2002))
	for _, m := range []int{2, 3, 4, 5} {
		in := experiments.Fig3Regular(rng, m)
		b.Run(fmt.Sprintf("qbf-m=%d", m), func(b *testing.B) { benchInstance(b, in) })
	}
}

func BenchmarkFig3MultiMulti(b *testing.B) {
	for _, kind := range []string{"sat", "unsat", "open"} {
		in := experiments.Fig3MultiMulti(kind)
		b.Run(kind, func(b *testing.B) { benchInstance(b, in) })
	}
}

// ---- Figure 4: relative constraint classes ----

func BenchmarkFig4RC(b *testing.B) {
	for _, kind := range []string{"linear-sat", "linear-unsat", "quad"} {
		in := experiments.Fig4Diophantine(kind)
		b.Run(kind, func(b *testing.B) { benchInstance(b, in) })
	}
}

func BenchmarkFig4HRC(b *testing.B) {
	for _, levels := range []int{1, 2, 4, 8, 16} {
		in := experiments.Fig4Hierarchical(levels, true)
		b.Run(fmt.Sprintf("levels=%d", levels), func(b *testing.B) { benchInstance(b, in) })
	}
}

func BenchmarkFig4DLocal(b *testing.B) {
	rng := rand.New(rand.NewSource(2002))
	for _, m := range []int{2, 3, 4} {
		in := experiments.Fig4DLocal(rng, m)
		b.Run(fmt.Sprintf("qbf-m=%d", m), func(b *testing.B) { benchInstance(b, in) })
	}
}

// ---- Theorem 3.5: restrictions ----

func BenchmarkThm35Hardness(b *testing.B) {
	rng := rand.New(rand.NewSource(2002))
	for _, bits := range []int{3, 5, 7, 9} {
		in := experiments.Thm35SubsetSum(rng, 4, 1<<uint(bits)-1)
		b.Run(fmt.Sprintf("subsetsum-bits=%d", bits), func(b *testing.B) { benchInstance(b, in) })
	}
}

func BenchmarkThm35Tractable(b *testing.B) {
	for _, w := range []int{1, 16, 128, 512} {
		in := experiments.Thm35Tractable(w, true)
		b.Run(fmt.Sprintf("width=%d", w), func(b *testing.B) { benchInstance(b, in) })
	}
}

func BenchmarkThm35CountMonteCarlo(b *testing.B) {
	d := dtd.MustParse(`
<!ELEMENT db (a, (a | b), b)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ATTLIST b y CDATA #REQUIRED>
`)
	set := constraint.MustParseSet("a.x -> a\nb.y -> b\na.x ⊆ b.y")
	rng := rand.New(rand.NewSource(7))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := consistency.CountMonteCarlo(d, set, rng, 500)
		if err != nil || !res.Consistent {
			b.Fatalf("count failed: %v %v", res, err)
		}
	}
}

// ---- Proposition 3.6 and implication ----

func BenchmarkImplication(b *testing.B) {
	d := dtd.MustParse(`
<!ELEMENT db (a*, b*, c*)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ELEMENT c EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ATTLIST b y CDATA #REQUIRED>
<!ATTLIST c z CDATA #REQUIRED>
`)
	set := constraint.MustParseSet("b.y -> b\nc.z -> c\na.x ⊆ b.y\nb.y ⊆ c.z")
	phi := constraint.MustParse("a.x ⊆ c.z")
	b.Run("implied-transitive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := implication.Implies(d, set, phi, implication.Options{})
			if err != nil || res.Verdict != implication.Implied {
				b.Fatalf("%v %v", res.Verdict, err)
			}
		}
	})
	neg := constraint.MustParse("c.z ⊆ a.x")
	b.Run("refuted-with-counterexample", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := implication.Implies(d, set, neg, implication.Options{})
			if err != nil || res.Verdict != implication.NotImplied {
				b.Fatalf("%v %v", res.Verdict, err)
			}
		}
	})
}

func BenchmarkProp36Reduction(b *testing.B) {
	d := dtd.MustParse(`<!ELEMENT db (a, b*)><!ELEMENT a EMPTY><!ELEMENT b EMPTY><!ATTLIST a x CDATA #REQUIRED><!ATTLIST b y CDATA #REQUIRED>`)
	set := constraint.MustParseSet("a.x -> a\nb.y -> b\na.x ⊆ b.y")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d2, set2, phi, err := implication.ReduceSATToNonImplication(d, set)
		if err != nil {
			b.Fatal(err)
		}
		res, err := implication.Implies(d2, set2, phi, implication.Options{})
		if err != nil || res.Verdict != implication.NotImplied {
			b.Fatalf("%v %v", res.Verdict, err)
		}
	}
}

// ---- Ablations (DESIGN.md §4) ----

// BenchmarkAblationSimplexPruning measures the exact-simplex
// relaxation modes on the hard unary family. Propagation plus
// conditional-first branching decides these systems in a handful of
// nodes, so an unconditional simplex is pure overhead — which is why
// LPAuto (simplex only after a node budget) is the default.
func BenchmarkAblationSimplexPruning(b *testing.B) {
	rng := rand.New(rand.NewSource(2002))
	in := experiments.Fig3Unary(rng, 6)
	for _, mode := range []struct {
		name string
		lp   ilp.LPMode
	}{
		{"lp-auto", ilp.LPAuto},
		{"lp-always", ilp.LPAlways},
		{"lp-never", ilp.LPNever},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := in.Opts
				opts.SkipWitness = true
				opts.ILP = ilp.Options{LP: mode.lp}
				res, err := consistency.Check(in.D, in.Set, opts)
				if err != nil || res.Verdict != in.Expect {
					b.Fatalf("%v %v", res.Verdict, err)
				}
			}
		})
	}
}

// BenchmarkAblationHierarchical compares the Theorem 4.3 scope
// decomposition against raw bounded tree search on the same
// (hierarchical, consistent) instance.
func BenchmarkAblationHierarchical(b *testing.B) {
	d := dtd.MustParse(benchLibraryDTD)
	set := constraint.MustParseSet(benchLibraryConstraints)
	b.Run("decomposition", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := consistency.Check(d, set, consistency.Options{SkipWitness: true})
			if err != nil || res.Verdict != consistency.Consistent {
				b.Fatalf("%v %v", res.Verdict, err)
			}
		}
	})
	b.Run("bounded-search", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res := bruteforce.Decide(d, set, bruteforce.Options{MaxNodes: 5})
			if !res.Sat() {
				b.Fatal("bounded search missed the witness")
			}
		}
	})
}

// ---- Substrate micro-benchmarks ----

func BenchmarkSubstrateDTDParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dtd.Parse(schoolDTD); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateDynamicValidation(b *testing.B) {
	d := dtd.MustParse(schoolDTD)
	set := constraint.MustParseSet(schoolConstraints)
	tree, err := xmltree.Generate(d, rand.New(rand.NewSource(3)), xmltree.GenerateOptions{MaxNodes: 400, StarMax: 4})
	if err != nil {
		b.Fatal(err)
	}
	serial := 0
	tree.Walk(func(n *xmltree.Node) {
		for _, l := range d.Attrs(n.Label) {
			n.SetAttr(l, fmt.Sprintf("v%d", serial))
			serial++
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.Conforms(d); err != nil {
			b.Fatal(err)
		}
		constraint.Check(tree, set)
	}
}

func BenchmarkSubstrateWitnessGeneration(b *testing.B) {
	spec := MustParse(schoolDTD, schoolConstraints)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := spec.Consistent(nil) // witness construction included
		if err != nil || res.Verdict != Consistent || res.Witness == "" {
			b.Fatalf("%v %v", res, err)
		}
	}
}

// BenchmarkSubstrateStreamingValidation measures the one-pass
// validator against the tree-based checker on the same document.
func BenchmarkSubstrateStreamingValidation(b *testing.B) {
	d := dtd.MustParse(schoolDTD)
	set := constraint.MustParseSet(schoolConstraints)
	tree, err := xmltree.Generate(d, rand.New(rand.NewSource(3)), xmltree.GenerateOptions{MaxNodes: 400, StarMax: 4})
	if err != nil {
		b.Fatal(err)
	}
	serial := 0
	tree.Walk(func(n *xmltree.Node) {
		for _, l := range d.Attrs(n.Label) {
			n.SetAttr(l, fmt.Sprintf("v%d", serial))
			serial++
		}
	})
	doc := tree.XML()
	v, err := streamcheck.New(d, set)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.ValidateString(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNarrowing isolates the cost of the D → D_N
// narrowing transformation on DTDs of growing size (DESIGN.md §4.2):
// it is linear and never the bottleneck, which is why every encoder
// runs it unconditionally.
func BenchmarkAblationNarrowing(b *testing.B) {
	for _, types := range []int{4, 16, 64, 256} {
		d := dtd.Random(rand.New(rand.NewSource(5)), dtd.RandomOptions{
			Types: types, MaxAttrs: 2, MaxExprSize: 12, AllowStar: true, AllowText: true,
		})
		b.Run(fmt.Sprintf("types=%d", types), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dtd.Narrow(d)
			}
		})
	}
}

// BenchmarkAblationRegionCount scales the number k of distinct β.τ.l
// targets in a regular constraint set on one DTD: the 2^k cell table
// of the Theorem 3.4 encoding is the NEXPTIME artifact, and the
// running time grows accordingly (DESIGN.md §4.3).
func BenchmarkAblationRegionCount(b *testing.B) {
	const dtdSrc = `
<!ELEMENT r (s, s, s, s)>
<!ELEMENT s (b, b)>
<!ELEMENT b EMPTY>
<!ATTLIST b v CDATA #REQUIRED>
`
	for _, k := range []int{2, 4, 8, 12} {
		lines := "b.v -> b\n"
		// k distinct targets: nested wildcard prefixes of r._*.b.
		for i := 0; i < k-1; i++ {
			prefix := "r"
			for j := 0; j <= i; j++ {
				prefix += "._"
			}
			// Some of these languages are empty on this DTD; they
			// still become regions and cells.
			lines += prefix + "*.b.v ⊆ b.v\n"
		}
		spec := MustParse(dtdSrc, lines)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := spec.Consistent(&Options{SkipWitness: true})
				if err != nil || res.Verdict != Consistent {
					b.Fatalf("%v %v", res.Verdict, err)
				}
			}
		})
	}
}

// BenchmarkThm35TractableExact times the derandomized Theorem 3.5(b)
// procedure against the general encoder on the fixed-k fixed-depth
// family.
func BenchmarkThm35TractableExact(b *testing.B) {
	for _, w := range []int{1, 16, 128} {
		in := experiments.Thm35Tractable(w, true)
		b.Run(fmt.Sprintf("exact-width=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := consistency.TractableExact(in.D, in.Set)
				if err != nil || !got {
					b.Fatalf("%v %v", got, err)
				}
			}
		})
	}
}

// BenchmarkParse parses the paper's specifications and one spec of
// each hard serving-benchmark family from surface syntax: the DTD, the
// constraint set, and its validation against the DTD, as xmlspec.Parse
// runs them for every served request.
func BenchmarkParse(b *testing.B) {
	for _, c := range parseCases(b) {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.dtd) + len(c.constraints)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Parse(c.dtd, c.constraints); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package cardinality

import (
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/ilp"
)

func solveFlowOnly(t *testing.T, src string) (*Flow, ilp.Result) {
	t.Helper()
	d := dtd.MustParse(src)
	sys := ilp.NewSystem()
	f := BuildFlow(sys, dtd.Narrow(d), nil)
	res, _ := DecideFlow(f, ilp.Options{})
	return f, res
}

func TestFlowSatisfiableDTD(t *testing.T) {
	f, res := solveFlowOnly(t, `
<!ELEMENT r (a, (b | c)*)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ELEMENT c (a)>
`)
	if res.Verdict != ilp.Sat {
		t.Fatalf("flow verdict = %v, want sat", res.Verdict)
	}
	tree, _, err := f.Realize(res.Values, 1000)
	if err != nil {
		t.Fatalf("Realize: %v", err)
	}
	if err := tree.Conforms(f.N.Orig); err != nil {
		t.Fatalf("realized tree does not conform: %v\n%s", err, tree.XML())
	}
}

func TestFlowUnsatisfiableDTD(t *testing.T) {
	// Mandatory recursion: no finite tree.
	_, res := solveFlowOnly(t, `
<!ELEMENT r (a)>
<!ELEMENT a (a)>
`)
	if res.Verdict != ilp.Unsat {
		t.Fatalf("flow verdict = %v, want unsat", res.Verdict)
	}
}

func TestFlowRecursiveCounts(t *testing.T) {
	// b forces two a's; a optionally one b: realizable counts must
	// obey connectivity.
	f, res := solveFlowOnly(t, `
<!ELEMENT r (a | x)>
<!ELEMENT x EMPTY>
<!ELEMENT a (b | x)>
<!ELEMENT b (a, a)>
`)
	if res.Verdict != ilp.Sat {
		t.Fatalf("flow verdict = %v, want sat", res.Verdict)
	}
	tree, _, err := f.Realize(res.Values, 10000)
	if err != nil {
		t.Fatalf("Realize: %v", err)
	}
	if err := tree.Conforms(f.N.Orig); err != nil {
		t.Fatalf("conformance: %v\n%s", err, tree.XML())
	}
}

// TestPhantomCycleCut forces a solution that is only flow-feasible via
// a support component disconnected from the root, and checks that the
// connectivity cuts refute it.
func TestPhantomCycleCut(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT r (a | x)>
<!ELEMENT x EMPTY>
<!ELEMENT a (b | x)>
<!ELEMENT b (a, a)>
`)
	sys := ilp.NewSystem()
	f := BuildFlow(sys, dtd.Narrow(d), nil)
	// Demand at least one a while forbidding every RuleRef into a or b
	// owned by r: the only remaining feeders form the a/b cycle.
	aNode := f.Lookup("a", 0)
	if aNode < 0 {
		t.Fatal("no flow node for a")
	}
	sys.AddGE([]ilp.Term{ilp.T(1, f.Vars[aNode])}, 1)
	for _, src := range f.feeders(aNode) {
		if f.N.Owner[f.Nodes[src].Sym] == f.N.Root {
			sys.AddConst(f.Vars[src], 0)
		}
	}
	// Without cuts the system is satisfiable via the phantom cycle.
	raw := ilp.Solve(sys, ilp.Options{})
	if raw.Verdict != ilp.Sat {
		t.Fatalf("raw flow verdict = %v, want sat (phantom)", raw.Verdict)
	}
	if comp := f.UnreachedSupport(raw.Values); len(comp) == 0 {
		t.Fatal("phantom solution reported as connected")
	}
	// The decide loop must refute it.
	res, cuts := DecideFlow(f, ilp.Options{})
	if res.Verdict != ilp.Unsat {
		t.Fatalf("decide verdict = %v (after %d cuts), want unsat", res.Verdict, cuts)
	}
	if cuts == 0 {
		t.Fatal("no cuts were needed?")
	}
}

func decideAbsolute(t *testing.T, dtdSrc, cSrc string) (ilp.Result, *AbsoluteEncoding) {
	t.Helper()
	d := dtd.MustParse(dtdSrc)
	set := constraint.MustParseSet(cSrc)
	if err := set.Validate(d); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	enc, err := EncodeAbsolute(d, set)
	if err != nil {
		t.Fatalf("EncodeAbsolute: %v", err)
	}
	res, _ := DecideFlow(enc.Flow, ilp.Options{})
	return res, enc
}

func TestAbsoluteSimpleSatUnsat(t *testing.T) {
	// Two a's, keyed, included in a single keyed b: unsat.
	res, _ := decideAbsolute(t, `
<!ELEMENT db (a, a, b)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ATTLIST b y CDATA #REQUIRED>
`, `
a.x -> a
b.y -> b
a.x ⊆ b.y
`)
	if res.Verdict != ilp.Unsat {
		t.Fatalf("verdict = %v, want unsat", res.Verdict)
	}
	// With b* it becomes satisfiable; the witness must verify.
	res2, enc2 := decideAbsolute(t, `
<!ELEMENT db (a, a, b*)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ATTLIST b y CDATA #REQUIRED>
`, `
a.x -> a
b.y -> b
a.x ⊆ b.y
`)
	if res2.Verdict != ilp.Sat {
		t.Fatalf("verdict = %v, want sat", res2.Verdict)
	}
	w, err := enc2.Witness(res2.Values, 1000)
	if err != nil {
		t.Fatalf("Witness: %v", err)
	}
	if err := w.Conforms(enc2.D); err != nil {
		t.Fatalf("witness conformance: %v\n%s", err, w.XML())
	}
	if vs := constraint.Check(w, enc2.Set); len(vs) != 0 {
		t.Fatalf("witness violations: %v\n%s", vs, w.XML())
	}
}

func TestAbsoluteMultiAttributePrimary(t *testing.T) {
	// 5 people keyed by (first, last): satisfiable with 3 firsts and 2
	// lasts, but not with an additional unary key forcing ≤ 2 values
	// on both coordinates... build the counting conflict with fks.
	res, enc := decideAbsolute(t, `
<!ELEMENT db (p, p, p, p, p, f, f, l, l)>
<!ELEMENT p EMPTY>
<!ELEMENT f EMPTY>
<!ELEMENT l EMPTY>
<!ATTLIST p first CDATA #REQUIRED last CDATA #REQUIRED>
<!ATTLIST f v CDATA #REQUIRED>
<!ATTLIST l v CDATA #REQUIRED>
`, `
p[first,last] -> p
f.v -> f
l.v -> l
p.first ⊆ f.v
p.last ⊆ l.v
`)
	// 5 ≤ |first| · |last| with |first| ≤ 2 and |last| ≤ 2 fails (4 < 5)…
	// but ext(f) = 2 only bounds ext(f.v) = 2 (key). So unsat.
	if res.Verdict != ilp.Unsat {
		t.Fatalf("verdict = %v, want unsat (5 > 2·2)", res.Verdict)
	}
	if !enc.Exact {
		t.Fatal("primary multi-attribute encoding must be exact")
	}
	// With 4 p's it becomes satisfiable and the witness must verify.
	res2, enc2 := decideAbsolute(t, `
<!ELEMENT db (p, p, p, p, f, f, l, l)>
<!ELEMENT p EMPTY>
<!ELEMENT f EMPTY>
<!ELEMENT l EMPTY>
<!ATTLIST p first CDATA #REQUIRED last CDATA #REQUIRED>
<!ATTLIST f v CDATA #REQUIRED>
<!ATTLIST l v CDATA #REQUIRED>
`, `
p[first,last] -> p
f.v -> f
l.v -> l
p.first ⊆ f.v
p.last ⊆ l.v
`)
	if res2.Verdict != ilp.Sat {
		t.Fatalf("verdict = %v, want sat (4 = 2·2)", res2.Verdict)
	}
	w, err := enc2.Witness(res2.Values, 1000)
	if err != nil {
		t.Fatalf("Witness: %v", err)
	}
	if vs := constraint.Check(w, enc2.Set); len(vs) != 0 {
		t.Fatalf("witness violations: %v\n%s", vs, w.XML())
	}
}

func TestDistinctTuples(t *testing.T) {
	for _, c := range []struct {
		n     int64
		sizes []int64
		ok    bool
	}{
		{4, []int64{2, 2}, true},
		{5, []int64{2, 2}, false},
		{3, []int64{2, 3}, true},
		{2, []int64{2, 3}, false}, // n < max
		{6, []int64{2, 3}, true},
		{1, []int64{1}, true},
		{7, []int64{2, 2, 2}, true},
	} {
		tuples, err := distinctTuples(c.n, c.sizes)
		if (err == nil) != c.ok {
			t.Fatalf("distinctTuples(%d, %v): err=%v, want ok=%v", c.n, c.sizes, err, c.ok)
		}
		if err != nil {
			continue
		}
		seen := map[string]bool{}
		cover := make([]map[int64]bool, len(c.sizes))
		for i := range cover {
			cover[i] = map[int64]bool{}
		}
		for _, tp := range tuples {
			k := ""
			for i, v := range tp {
				if v < 0 || v >= c.sizes[i] {
					t.Fatalf("coordinate out of range: %v", tp)
				}
				cover[i][v] = true
				k += string(rune('0' + v))
			}
			if seen[k] {
				t.Fatalf("duplicate tuple %v", tp)
			}
			seen[k] = true
		}
		for i, cv := range cover {
			if int64(len(cv)) != c.sizes[i] {
				t.Fatalf("coordinate %d covers %d of %d values", i, len(cv), c.sizes[i])
			}
		}
	}
}

// TestAbsoluteAgainstBruteForce is the central soundness/completeness
// property test: on random small DTDs with random unary constraint
// sets, the encoding-based verdict must agree with bounded exhaustive
// search — in both directions.
func TestAbsoluteAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trials := 0
	for trials < 250 {
		d := dtd.Random(rng, dtd.RandomOptions{
			Types: 2 + rng.Intn(3), MaxAttrs: 2, MaxExprSize: 5,
			AllowStar: rng.Intn(2) == 0, AllowText: false,
		})
		set := randomUnarySet(rng, d)
		if set.Size() == 0 || set.Validate(d) != nil {
			continue
		}
		trials++
		enc, err := EncodeAbsolute(d, set)
		if err != nil {
			t.Fatalf("EncodeAbsolute: %v", err)
		}
		res, _ := DecideFlow(enc.Flow, ilp.Options{MaxNodes: 1 << 16})
		bf := bruteforce.Decide(d, set, bruteforce.Options{MaxNodes: 4, MaxShapes: 4000, MaxPartitions: 4000})
		switch res.Verdict {
		case ilp.Sat:
			// Completeness of realization: the witness must verify.
			w, err := enc.Witness(res.Values, 4000)
			if err != nil {
				t.Fatalf("witness failed on sat instance: %v\nDTD:\n%s\nΣ:\n%s", err, d, set)
			}
			if errc := w.Conforms(d); errc != nil {
				t.Fatalf("witness conformance: %v\nDTD:\n%s\nΣ:\n%sDoc:\n%s", errc, d, set, w.XML())
			}
			if vs := constraint.Check(w, set); len(vs) != 0 {
				t.Fatalf("witness violations: %v\nDTD:\n%s\nΣ:\n%s", vs, d, set)
			}
		case ilp.Unsat:
			if bf.Sat() {
				t.Fatalf("encoder unsat but brute force found witness\nDTD:\n%s\nΣ:\n%s\nDoc:\n%s",
					d, set, bf.Witness.XML())
			}
		case ilp.Unknown:
			t.Fatalf("unexpected unknown on small instance\nDTD:\n%s\nΣ:\n%s", d, set)
		}
		// The reverse direction: brute-force sat forces encoder sat.
		if bf.Sat() && res.Verdict != ilp.Sat {
			t.Fatalf("brute force sat but encoder %v", res.Verdict)
		}
	}
}

// randomUnarySet draws a random unary absolute constraint set over the
// DTD's types and attributes.
func randomUnarySet(rng *rand.Rand, d *dtd.DTD) *constraint.Set {
	type ta struct{ typ, attr string }
	var tas []ta
	for _, name := range d.Names {
		for _, a := range d.Attrs(name) {
			tas = append(tas, ta{name, a})
		}
	}
	set := &constraint.Set{}
	if len(tas) == 0 {
		return set
	}
	for i := rng.Intn(3); i > 0; i-- {
		x := tas[rng.Intn(len(tas))]
		set.AddKey(constraint.Key{Target: constraint.Target{Type: x.typ, Attrs: []string{x.attr}}})
	}
	for i := rng.Intn(3); i > 0; i-- {
		from := tas[rng.Intn(len(tas))]
		to := tas[rng.Intn(len(tas))]
		set.AddForeignKey(constraint.Inclusion{
			From: constraint.Target{Type: from.typ, Attrs: []string{from.attr}},
			To:   constraint.Target{Type: to.typ, Attrs: []string{to.attr}},
		})
	}
	return set
}

func TestDecideFlowMinimal(t *testing.T) {
	// Stars admit arbitrarily large trees; minimization must converge
	// to the smallest (root + mandatory b = 2 elements).
	d := dtd.MustParse(`
<!ELEMENT db (a*, b, b*)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ATTLIST b y CDATA #REQUIRED>
`)
	set := constraint.MustParseSet("a.x -> a\nb.y -> b\na.x ⊆ b.y")
	enc, err := EncodeAbsolute(d, set)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := DecideFlowMinimal(enc.Flow, ilp.Options{})
	if res.Verdict != ilp.Sat {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	var total int64
	for _, fn := range enc.Flow.ElementNodes() {
		total += res.Values[enc.Flow.Vars[fn]]
	}
	if total != 2 {
		t.Fatalf("minimal element count = %d, want 2", total)
	}
	// An unsat flow passes straight through.
	d2 := dtd.MustParse(`<!ELEMENT db (a)><!ELEMENT a (a)>`)
	enc2, err := EncodeAbsolute(d2, &constraint.Set{})
	if err != nil {
		t.Fatal(err)
	}
	res2, _ := DecideFlowMinimal(enc2.Flow, ilp.Options{})
	if res2.Verdict != ilp.Unsat {
		t.Fatalf("verdict = %v, want unsat", res2.Verdict)
	}
}

func TestFlowAccessors(t *testing.T) {
	d := dtd.MustParse(`<!ELEMENT db (a, a)><!ELEMENT a EMPTY>`)
	sys := ilp.NewSystem()
	f := BuildFlow(sys, dtd.Narrow(d), nil)
	if got := f.TypeNodes("a"); len(got) != 1 {
		t.Errorf("TypeNodes(a) = %v", got)
	}
	if got := f.TypeNodes("db#1"); len(got) != 0 {
		t.Errorf("TypeNodes of a nonterminal must be empty, got %v", got)
	}
	if f.Lookup("zz", 0) != -1 {
		t.Error("Lookup of unknown symbol must be -1")
	}
	enc, err := EncodeAbsolute(d, &constraint.Set{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := enc.Flow.Sys.NumVars(), len(enc.Flow.Nodes); got != want {
		t.Errorf("no constraints → no ext vars, got %d variables for %d flow nodes", got, want)
	}
	if _, ok := enc.ExtVar("a", "x"); ok {
		t.Error("ExtVar of an unmentioned attribute must not exist")
	}
}

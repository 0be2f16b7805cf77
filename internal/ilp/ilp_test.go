package ilp

import (
	"math/rand"
	"testing"
)

func TestSolveBasicLinear(t *testing.T) {
	// x + y = 5, x ≥ 2, y ≥ 2 → sat (x=2..3).
	s := NewSystem()
	x, y := s.Var("x"), s.Var("y")
	s.AddEQ([]Term{T(1, x), T(1, y)}, 5)
	s.AddGE([]Term{T(1, x)}, 2)
	s.AddGE([]Term{T(1, y)}, 2)
	res := Solve(s, Options{})
	if res.Verdict != Sat {
		t.Fatalf("verdict = %v, want sat", res.Verdict)
	}
	if err := s.Eval(res.Values); err != nil {
		t.Fatalf("Eval: %v", err)
	}
}

func TestSolveInfeasibleLinear(t *testing.T) {
	// x + y ≤ 3, x ≥ 2, y ≥ 2 → unsat.
	s := NewSystem()
	x, y := s.Var("x"), s.Var("y")
	s.AddLE([]Term{T(1, x), T(1, y)}, 3)
	s.AddGE([]Term{T(1, x)}, 2)
	s.AddGE([]Term{T(1, y)}, 2)
	if res := Solve(s, Options{}); res.Verdict != Unsat {
		t.Fatalf("verdict = %v, want unsat", res.Verdict)
	}
}

func TestSolveIntegrality(t *testing.T) {
	// 2x = 2y + 1 is LP-feasible but integer-infeasible; with the
	// theoretical bound under the cap this must come back unsat.
	s := NewSystem()
	x, y := s.Var("x"), s.Var("y")
	s.AddEQ([]Term{T(2, x), T(-2, y)}, 1)
	res := Solve(s, Options{})
	if res.Verdict != Unsat {
		t.Fatalf("verdict = %v, want unsat (parity)", res.Verdict)
	}
}

func TestSolveConditionals(t *testing.T) {
	// (x > 0) → (y > 0), x ≥ 1, y = 0 → unsat.
	s := NewSystem()
	x, y := s.Var("x"), s.Var("y")
	s.AddCondVar(x, y)
	s.AddGE([]Term{T(1, x)}, 1)
	s.AddConst(y, 0)
	if res := Solve(s, Options{}); res.Verdict != Unsat {
		t.Fatalf("verdict = %v, want unsat", res.Verdict)
	}
	// Same without y = 0: sat with y ≥ 1.
	s2 := NewSystem()
	x2, y2 := s2.Var("x"), s2.Var("y")
	s2.AddCondVar(x2, y2)
	s2.AddGE([]Term{T(1, x2)}, 1)
	res := Solve(s2, Options{})
	if res.Verdict != Sat {
		t.Fatalf("verdict = %v, want sat", res.Verdict)
	}
	if res.Values[y2] < 1 {
		t.Fatalf("y = %d, want ≥ 1", res.Values[y2])
	}
	// Conditional satisfied by a zero premise.
	s3 := NewSystem()
	x3, y3 := s3.Var("x"), s3.Var("y")
	s3.AddCondVar(x3, y3)
	s3.AddConst(y3, 0)
	if res := Solve(s3, Options{}); res.Verdict != Sat {
		t.Fatalf("verdict = %v, want sat (x=0)", res.Verdict)
	}
}

func TestSolveQuad(t *testing.T) {
	// x ≤ y·z, x = 6, y + z ≤ 5 → sat (y=2,z=3 or y=3,z=2).
	s := NewSystem()
	x, y, z := s.Var("x"), s.Var("y"), s.Var("z")
	s.AddQuad(x, y, z)
	s.AddConst(x, 6)
	s.AddLE([]Term{T(1, y), T(1, z)}, 5)
	res := Solve(s, Options{})
	if res.Verdict != Sat {
		t.Fatalf("verdict = %v, want sat", res.Verdict)
	}
	if err := s.Eval(res.Values); err != nil {
		t.Fatal(err)
	}
	// x = 7, y + z ≤ 5: max product is 6 → unsat... but an Unknown is
	// tolerated only if the cap interfered, which it should not here
	// since propagation bounds y, z by 5.
	s2 := NewSystem()
	x2, y2, z2 := s2.Var("x"), s2.Var("y"), s2.Var("z")
	s2.AddQuad(x2, y2, z2)
	s2.AddConst(x2, 7)
	s2.AddLE([]Term{T(1, y2), T(1, z2)}, 5)
	if res := Solve(s2, Options{}); res.Verdict != Unsat {
		t.Fatalf("verdict = %v, want unsat", res.Verdict)
	}
}

func TestAddProductUpper(t *testing.T) {
	// x ≤ a·b·c with a=b=c=2 → x ≤ 8.
	s := NewSystem()
	x := s.Var("x")
	vars := []Var{s.Var("a"), s.Var("b"), s.Var("c")}
	for _, v := range vars {
		s.AddConst(v, 2)
	}
	s.AddProductUpper(x, vars)
	s.AddGE([]Term{T(1, x)}, 9)
	if res := Solve(s, Options{}); res.Verdict != Unsat {
		t.Fatalf("x ≥ 9 with x ≤ 2·2·2: verdict = %v, want unsat", res.Verdict)
	}
	s2 := NewSystem()
	x2 := s2.Var("x")
	vars2 := []Var{s2.Var("a"), s2.Var("b"), s2.Var("c")}
	for _, v := range vars2 {
		s2.AddConst(v, 2)
	}
	s2.AddProductUpper(x2, vars2)
	s2.AddGE([]Term{T(1, x2)}, 8)
	if res := Solve(s2, Options{}); res.Verdict != Sat {
		t.Fatalf("x = 8 with x ≤ 2·2·2: verdict = %v, want sat", res.Verdict)
	}
	// Degenerate arities.
	s3 := NewSystem()
	x3 := s3.Var("x")
	s3.AddProductUpper(x3, nil)
	s3.AddGE([]Term{T(1, x3)}, 2)
	if res := Solve(s3, Options{}); res.Verdict != Unsat {
		t.Fatalf("empty product: verdict = %v, want unsat", res.Verdict)
	}
}

func TestUnknownOnBudget(t *testing.T) {
	// A hard subset-sum-like system with a tiny node budget must give
	// Unknown, not a false unsat.
	s := NewSystem()
	var terms []Term
	for i := 0; i < 12; i++ {
		v := s.Var(string(rune('a' + i)))
		s.AddLE([]Term{T(1, v)}, 1)
		terms = append(terms, T(int64(1<<i), v))
	}
	s.AddEQ(terms, (1<<12)-1) // all ones
	res := Solve(s, Options{MaxNodes: 3})
	if res.Verdict == Unsat {
		t.Fatalf("tiny budget returned a definitive unsat")
	}
}

func TestStatsAndString(t *testing.T) {
	s := NewSystem()
	x, y, z := s.Var("x"), s.Var("y"), s.Var("z")
	s.AddLE([]Term{T(2, x), T(-3, y)}, 7)
	s.AddCondVar(x, y)
	s.AddQuad(x, y, z)
	out := s.String()
	for _, frag := range []string{"2*x", "- 3*y", "<= 7", "(x > 0) -> (y > 0)", "x <= y * z"} {
		if !contains(out, frag) {
			t.Errorf("String() = %q missing %q", out, frag)
		}
	}
	res := Solve(s, Options{})
	if res.Stats.Nodes == 0 {
		t.Error("stats not recorded")
	}
	if res.Verdict != Sat {
		t.Errorf("verdict = %v, want sat (all zeros)", res.Verdict)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// bruteForce decides a system by enumerating all assignments with
// values in [0, maxVal].
func bruteForce(s *System, maxVal int64) Verdict {
	n := s.NumVars()
	vals := make([]int64, n)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == n {
			return s.Eval(vals) == nil
		}
		for v := int64(0); v <= maxVal; v++ {
			vals[i] = v
			if rec(i + 1) {
				return true
			}
		}
		vals[i] = 0
		return false
	}
	if rec(0) {
		return Sat
	}
	return Unsat
}

// TestSolveAgainstBruteForce cross-checks the solver on random small
// systems whose solutions, when they exist, fit in a tiny box: all
// constraints include x_i ≤ box, so brute force over the box is exact.
func TestSolveAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	const box = 3
	for trial := 0; trial < 300; trial++ {
		s := NewSystem()
		n := 2 + rng.Intn(3)
		vars := make([]Var, n)
		for i := range vars {
			vars[i] = s.Var(string(rune('a' + i)))
			s.AddLE([]Term{T(1, vars[i])}, box)
		}
		for c := rng.Intn(4); c > 0; c-- {
			var terms []Term
			for i := range vars {
				if coef := rng.Intn(5) - 2; coef != 0 {
					terms = append(terms, T(int64(coef), vars[i]))
				}
			}
			if len(terms) == 0 {
				continue
			}
			s.AddLinear(terms, Rel(rng.Intn(3)), int64(rng.Intn(9)-2))
		}
		for c := rng.Intn(3); c > 0; c-- {
			i, j := rng.Intn(n), rng.Intn(n)
			s.AddCondVar(vars[i], vars[j])
		}
		for c := rng.Intn(2); c > 0; c-- {
			s.AddQuad(vars[rng.Intn(n)], vars[rng.Intn(n)], vars[rng.Intn(n)])
		}
		want := bruteForce(s, box)
		for _, disableLP := range []bool{false, true} {
			got := Solve(s, Options{DisableLP: disableLP})
			if got.Verdict != want {
				t.Fatalf("trial %d (lp=%v): solver=%v brute=%v\n%s",
					trial, !disableLP, got.Verdict, want, s)
			}
			if got.Verdict == Sat {
				if err := s.Eval(got.Values); err != nil {
					t.Fatalf("trial %d: invalid model: %v", trial, err)
				}
			}
		}
	}
}

func TestLPFeasibleDirect(t *testing.T) {
	// x + y ≤ 1, x ≥ 1, y ≥ 1 infeasible even rationally.
	lo := []int64{1, 1}
	hi := []int64{noBound, noBound}
	rows := []lpRow{{terms: []Term{T(1, 0), T(1, 1)}, rel: LE, k: 1}}
	if ok, _ := lpFeasible(2, rows, lo, hi, nil, nil); ok {
		t.Fatal("infeasible LP reported feasible")
	}
	// x + y = 1 with x, y ≥ 0 feasible; check the point.
	lo = []int64{0, 0}
	rows = []lpRow{{terms: []Term{T(1, 0), T(1, 1)}, rel: EQ, k: 1}}
	ok, pt := lpFeasible(2, rows, lo, hi, nil, nil)
	if !ok {
		t.Fatal("feasible LP reported infeasible")
	}
	sum := pt[0].Num().Int64()*pt[1].Denom().Int64() + pt[1].Num().Int64()*pt[0].Denom().Int64()
	if sum != pt[0].Denom().Int64()*pt[1].Denom().Int64() {
		t.Fatalf("point %v %v does not satisfy x+y=1", pt[0], pt[1])
	}
	// Empty system: trivially feasible at the lower bounds.
	ok, pt = lpFeasible(1, nil, []int64{2}, []int64{noBound}, nil, nil)
	if !ok || pt[0].Num().Int64() != 2 {
		t.Fatalf("empty LP: %v %v", ok, pt)
	}
}

func TestVarIntern(t *testing.T) {
	s := NewSystem()
	a := s.Var("a")
	if b := s.Var("a"); b != a {
		t.Error("Var not interned")
	}
	if s.NumVars() != 1 || s.Name(a) != "a" {
		t.Error("names wrong")
	}
	if v, ok := s.Lookup("a"); !ok || v != a {
		t.Error("Lookup broken")
	}
	if _, ok := s.Lookup("zz"); ok {
		t.Error("Lookup of unknown must fail")
	}
}

func TestNormalizeTerms(t *testing.T) {
	s := NewSystem()
	x, y := s.Var("x"), s.Var("y")
	s.AddLE([]Term{T(1, x), T(2, x), T(1, y), T(-1, y)}, 5)
	l := s.Lins[0]
	if len(l.Terms) != 1 || l.Terms[0].Var != x || l.Terms[0].Coef != 3 {
		t.Fatalf("normalize: %+v", l.Terms)
	}
}

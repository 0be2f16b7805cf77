package ilp

import (
	"math/rand"
	"testing"
)

// randomSystem builds a small random system. Coefficient and constant
// magnitudes scale with wild so some trials strain the int64 tableau
// while most stay comfortably inside it.
func randomSystem(rng *rand.Rand, wild bool) *System {
	s := NewSystem()
	n := 2 + rng.Intn(4)
	vars := make([]Var, n)
	coef := func() int64 {
		c := int64(rng.Intn(9) - 4)
		if wild && rng.Intn(4) == 0 {
			c *= int64(1) << (30 + rng.Intn(28))
		}
		return c
	}
	for i := range vars {
		vars[i] = s.Var(string(rune('a' + i)))
		s.AddLE([]Term{T(1, vars[i])}, int64(1+rng.Intn(40)))
	}
	for c := 1 + rng.Intn(5); c > 0; c-- {
		var terms []Term
		for i := range vars {
			if cf := coef(); cf != 0 {
				terms = append(terms, T(cf, vars[i]))
			}
		}
		if len(terms) == 0 {
			continue
		}
		k := int64(rng.Intn(60) - 10)
		if wild && rng.Intn(4) == 0 {
			k *= int64(1) << (30 + rng.Intn(28))
		}
		s.AddLinear(terms, Rel(rng.Intn(3)), k)
	}
	for c := rng.Intn(3); c > 0; c-- {
		s.AddCondVar(vars[rng.Intn(n)], vars[rng.Intn(n)])
	}
	for c := rng.Intn(2); c > 0; c-- {
		s.AddQuad(vars[rng.Intn(n)], vars[rng.Intn(n)], vars[rng.Intn(n)])
	}
	return s
}

// TestFastPathDifferential solves ≥500 random systems twice — int64
// fast path vs forced big.Rat simplex — and requires bit-identical
// results: same verdict, same model, and the same search shape down to
// individual pivots. LPAlways makes every node exercise the simplex.
func TestFastPathDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 600; trial++ {
		s := randomSystem(rng, trial%3 == 0)
		fast := Solve(s, Options{LP: LPAlways, MaxNodes: 20000})
		exact := Solve(s, Options{LP: LPAlways, MaxNodes: 20000, ForceRatLP: true})
		if fast.Verdict != exact.Verdict {
			t.Fatalf("trial %d: fast=%v exact=%v\n%s", trial, fast.Verdict, exact.Verdict, s)
		}
		if fast.Verdict == Sat {
			if err := s.Eval(fast.Values); err != nil {
				t.Fatalf("trial %d: fast model invalid: %v", trial, err)
			}
			for i := range fast.Values {
				if fast.Values[i] != exact.Values[i] {
					t.Fatalf("trial %d: models differ at %d: fast=%d exact=%d",
						trial, i, fast.Values[i], exact.Values[i])
				}
			}
		}
		// The search shape must be identical: the fast path may only
		// change who does the arithmetic, never what it computes.
		fs, es := fast.Stats, exact.Stats
		if fs.Nodes != es.Nodes || fs.LPCalls != es.LPCalls || fs.Pivots != es.Pivots ||
			fs.Branches != es.Branches || fs.MaxDepth != es.MaxDepth ||
			fs.PropPasses != es.PropPasses {
			t.Fatalf("trial %d: search shape diverged:\nfast:  %+v\nexact: %+v\n%s",
				trial, fs, es, s)
		}
		if es.FastPathLPs != 0 || fs.FastPathLPs+fs.RatFallbacks != fs.LPCalls {
			t.Fatalf("trial %d: fast-path accounting off: %+v", trial, fs)
		}
	}
}

// TestFastPathPointDifferential compares the two simplex
// implementations row-for-row on random relaxations: the same
// feasibility answer and the exact same rational point.
func TestFastPathPointDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ft fastTableau
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(4)
		lo := make([]int64, n)
		hi := make([]int64, n)
		for i := range hi {
			lo[i] = int64(rng.Intn(3))
			hi[i] = noBound
			if rng.Intn(2) == 0 {
				hi[i] = lo[i] + int64(rng.Intn(30))
			}
		}
		var rows []lpRow
		for c := 1 + rng.Intn(4); c > 0; c-- {
			var terms []Term
			for i := 0; i < n; i++ {
				if cf := int64(rng.Intn(9) - 4); cf != 0 {
					terms = append(terms, T(cf, Var(i)))
				}
			}
			if len(terms) == 0 {
				continue
			}
			rows = append(rows, lpRow{terms: terms, rel: Rel(rng.Intn(3)), k: int64(rng.Intn(40) - 8)})
		}
		okF, ptF, completed := ft.lpFeasibleFast(n, rows, lo, hi, nil, nil)
		if !completed {
			t.Fatalf("trial %d: small LP overflowed the fast path", trial)
		}
		okR, ptR := lpFeasible(n, rows, lo, hi, nil, nil)
		if okF != okR {
			t.Fatalf("trial %d: fast=%v exact=%v", trial, okF, okR)
		}
		if okF {
			for i := range ptF {
				if ptF[i].Cmp(ptR[i]) != 0 {
					t.Fatalf("trial %d: point differs at %d: fast=%v exact=%v",
						trial, i, ptF[i], ptR[i])
				}
			}
		}
	}
}

// TestFastPathOverflowFallback forces coefficients past the int64
// window and requires the solver to fall back to the exact tableau —
// with the verdict still matching the forced-big.Rat run.
func TestFastPathOverflowFallback(t *testing.T) {
	huge := int64(1) << 40
	rows := []lpRow{
		{terms: []Term{T(huge, 0), T(huge+1, 1)}, rel: EQ, k: 3*huge + 1},
		{terms: []Term{T(1, 0), T(1, 1)}, rel: GE, k: 1},
	}
	lo := []int64{0, 0}
	hi := []int64{5, 5}
	var ft fastTableau
	_, _, completed := ft.lpFeasibleFast(2, rows, lo, hi, nil, nil)
	if completed {
		t.Fatal("expected the huge-coefficient LP to overflow the fast path")
	}

	// The same shape driven through Solve must fall back and still
	// agree with the forced-big.Rat run.
	s := NewSystem()
	x, y := s.Var("x"), s.Var("y")
	s.AddEQ([]Term{T(huge, x), T(huge+1, y)}, 3*huge+1)
	s.AddGE([]Term{T(1, x), T(1, y)}, 1)
	s.AddLE([]Term{T(1, x)}, 5)
	s.AddLE([]Term{T(1, y)}, 5)
	fast := Solve(s, Options{LP: LPAlways})
	exact := Solve(s, Options{LP: LPAlways, ForceRatLP: true})
	if fast.Verdict != exact.Verdict {
		t.Fatalf("fast=%v exact=%v", fast.Verdict, exact.Verdict)
	}
	if fast.Verdict == Sat {
		if err := s.Eval(fast.Values); err != nil {
			t.Fatalf("fast model invalid: %v", err)
		}
	}
	if fast.Stats.LPCalls > 0 && fast.Stats.RatFallbacks == 0 {
		t.Fatalf("expected a big.Rat fallback, got %+v", fast.Stats)
	}
}

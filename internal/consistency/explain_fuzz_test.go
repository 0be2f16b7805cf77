package consistency_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/certificate"
	"repro/internal/consistency"
	"repro/internal/constraint"
	"repro/internal/contentmodel"
	"repro/internal/dtd"
	"repro/internal/prover"
)

// FuzzExplainCore checks Explain's core contract on specifications
// drawn from the fuzz bytes: whenever the verdict is Inconsistent, the
// core subset is itself decided Inconsistent, dropping any single core
// member (where the rest stays well-formed) leaves a subset that is
// not, and the attached certificate verifies. "Decided" is the
// minimizer's oracle: a prover refutation or an Inconsistent check.
// Plain `go test` replays the committed corpus under
// testdata/fuzz/FuzzExplainCore; `go test -fuzz=FuzzExplainCore`
// explores further.
func FuzzExplainCore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x02\x01\x01\x00\x01\x02\x00\x00\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, set, ok := fuzzSpec(data)
		if !ok {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		opts := consistency.Options{Ctx: ctx}
		ex, err := consistency.Explain(d, set, opts)
		if err != nil {
			if consistency.Aborted(err) {
				return
			}
			t.Fatalf("Explain: %v\nDTD:\n%s\nΣ:\n%s", err, d, set)
		}
		if ex.Verdict != consistency.Inconsistent {
			return
		}
		what := fmt.Sprintf("core %v\nDTD:\n%s\nΣ:\n%s", ex.Core, d, set)
		if err := certificate.Verify(d, set, ex.Certificate); err != nil {
			t.Fatalf("certificate does not verify: %v\n%s", err, what)
		}
		if !d.Satisfiable() {
			return // the DTD alone conflicts; the core is empty by contract
		}
		if !decidedInconsistent(t, d, subsetOf(set, ex.Core, -1), opts) {
			t.Fatalf("core is not decided inconsistent\n%s", what)
		}
		for _, drop := range ex.Core {
			sub := subsetOf(set, ex.Core, drop)
			if sub.Validate(d) != nil {
				continue // the member is load-bearing for a kept foreign key
			}
			if decidedInconsistent(t, d, sub, opts) {
				t.Fatalf("core without Σ[%d] is still decided inconsistent\n%s", drop, what)
			}
		}
	})
}

// decidedInconsistent is the minimizer's oracle: the prover refutes the
// set, or the full check decides it Inconsistent.
func decidedInconsistent(t *testing.T, d *dtd.DTD, set *constraint.Set, opts consistency.Options) bool {
	t.Helper()
	if prover.Saturate(d, set).Refuted {
		return true
	}
	opts.SkipWitness, opts.SkipCertificate = true, true
	res, err := consistency.Check(d, set, opts)
	if err != nil {
		if consistency.Aborted(err) {
			t.Skip("sub-check aborted")
		}
		t.Fatalf("check: %v", err)
	}
	return res.Verdict == consistency.Inconsistent
}

// subsetOf materializes the Σ indices of core (keys first, then
// inclusions), leaving out index drop.
func subsetOf(set *constraint.Set, core []int, drop int) *constraint.Set {
	out := &constraint.Set{}
	for _, i := range core {
		switch {
		case i == drop:
		case i < len(set.Keys):
			out.AddKey(set.Keys[i])
		default:
			out.AddInclusion(set.Incls[i-len(set.Keys)])
		}
	}
	return out
}

// fuzzBytes reads bounded choices from fuzz input; an exhausted input
// reads as zeros.
type fuzzBytes struct {
	b []byte
	i int
}

func (s *fuzzBytes) intn(n int) int {
	if n <= 1 || s.i >= len(s.b) {
		return 0
	}
	v := int(s.b[s.i]) % n
	s.i++
	return v
}

// fuzzSpec decodes a non-recursive DTD of at most 6 types, each
// referencing only later types, and a set of at most 5 unary keys and
// foreign keys over its attributes, absolute or relative to a context
// type. ok is false when the set is not well-formed over the DTD.
func fuzzSpec(data []byte) (*dtd.DTD, *constraint.Set, bool) {
	src := &fuzzBytes{b: data}
	n := 1 + src.intn(6)
	name := func(i int) string { return fmt.Sprintf("t%d", i) }
	d := dtd.New(name(0))
	var targets []constraint.Target
	for i := 0; i < n; i++ {
		var kids []*contentmodel.Expr
		for j := i + 1; j < n; j++ {
			ref := contentmodel.Ref(name(j))
			switch src.intn(7) {
			case 1:
				kids = append(kids, ref)
			case 2:
				kids = append(kids, ref, contentmodel.Ref(name(j)))
			case 3:
				kids = append(kids, contentmodel.NewStar(ref))
			case 4:
				kids = append(kids, contentmodel.Plus(ref))
			case 5:
				kids = append(kids, contentmodel.Opt(ref))
			case 6:
				if k := j + 1 + src.intn(n-j); k < n {
					kids = append(kids, contentmodel.NewChoice(ref, contentmodel.Ref(name(k))))
				}
			}
		}
		content := contentmodel.Eps()
		if len(kids) > 0 {
			content = contentmodel.NewSeq(kids...)
		}
		attrs := []string{"a", "b"}[:src.intn(3)]
		d.Define(name(i), content, attrs...)
		for _, a := range attrs {
			targets = append(targets, constraint.Target{Type: name(i), Attrs: []string{a}})
		}
	}
	if d.Validate() != nil {
		return nil, nil, false
	}
	set := &constraint.Set{}
	if len(targets) == 0 {
		return d, set, true
	}
	context := func() string {
		if c := src.intn(n + 2); c < n {
			return name(c)
		}
		return ""
	}
	for m := src.intn(6); m > 0 && prover.ConstraintCount(set) < 5; m-- {
		ctx, from := context(), targets[src.intn(len(targets))]
		if src.intn(2) == 0 {
			set.AddKey(constraint.Key{Context: ctx, Target: from})
			continue
		}
		to := targets[src.intn(len(targets))]
		if prover.ConstraintCount(set) > 3 {
			continue // the foreign key may bring its key along
		}
		set.AddForeignKey(constraint.Inclusion{Context: ctx, From: from, To: to})
	}
	return d, set, set.Validate(d) == nil
}

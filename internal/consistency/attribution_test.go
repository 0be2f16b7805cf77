package consistency_test

import (
	"sort"
	"testing"

	"repro/internal/consistency"
	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/experiments"
	"repro/internal/introspect"
	"repro/internal/obs"
)

// attributed checks a spec with a cost ledger and a recorder attached.
func attributed(t *testing.T, d *dtd.DTD, set *constraint.Set, skipLint bool) consistency.Result {
	t.Helper()
	res, err := consistency.Check(d, set, consistency.Options{
		Ledger:   introspect.NewLedger(),
		Obs:      obs.New(),
		SkipLint: skipLint,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkScopeRows requires one row per scope subproblem, distinct keys,
// solver effort that sums to the check's totals, and the cost table's
// order: descending elapsed time, ties by key.
func checkScopeRows(t *testing.T, name string, res consistency.Result) {
	t.Helper()
	rows := res.Attribution
	if len(rows) == 0 || len(rows) != res.Stats.Scopes {
		t.Fatalf("%s: %d rows for %d scopes", name, len(rows), res.Stats.Scopes)
	}
	keys := map[string]bool{}
	var nodes, lps, pivots, branches, props, cuts int
	for _, r := range rows {
		if keys[r.Key] {
			t.Errorf("%s: duplicate row key %q", name, r.Key)
		}
		keys[r.Key] = true
		if r.Type == "" || r.Verdict == "" {
			t.Errorf("%s: incomplete row %+v", name, r)
		}
		nodes += r.Nodes
		lps += r.LPCalls
		pivots += r.Pivots
		branches += r.Branches
		props += r.Propagations
		cuts += r.Cuts
	}
	st := res.Stats
	if nodes != st.ILPNodes || lps != st.LPCalls || pivots != st.Pivots ||
		branches != st.Branches || props != st.Propagations || cuts != st.Cuts {
		t.Errorf("%s: row sums nodes=%d lp=%d pivots=%d branches=%d props=%d cuts=%d, stats %+v",
			name, nodes, lps, pivots, branches, props, cuts, st)
	}
	if !sort.SliceIsSorted(rows, func(i, j int) bool {
		if rows[i].ElapsedUS != rows[j].ElapsedUS {
			return rows[i].ElapsedUS > rows[j].ElapsedUS
		}
		return rows[i].Key < rows[j].Key
	}) {
		t.Errorf("%s: rows not sorted by descending elapsed time: %+v", name, rows)
	}
}

// TestAttributionRowsMatchStats pins the per-scope cost rows of the
// Theorem 4.3 decomposition against the check's aggregate stats, on a
// consistent and an inconsistent Figure 4 instance (SkipLint keeps the
// prepass from refuting the inconsistent one before any scope runs).
func TestAttributionRowsMatchStats(t *testing.T) {
	for _, sat := range []bool{true, false} {
		in := experiments.Fig4Hierarchical(3, sat)
		res := attributed(t, in.D, in.Set, true)
		checkScopeRows(t, in.Name, res)
	}
	d, set := consistency.LoadTestdataSpec(t, "library", "library")
	res := attributed(t, d, set, false)
	checkScopeRows(t, "library", res)
}

// TestAttributionDocumentRow: the non-relative routes solve the whole
// document as one subproblem and record exactly one "document" row;
// a lint short-circuit runs no subproblem and records none.
func TestAttributionDocumentRow(t *testing.T) {
	cases := []struct{ name, dtd, keys, verdict string }{
		{"keys-only", `<!ELEMENT library (book*)>
<!ELEMENT book EMPTY>
<!ATTLIST book isbn CDATA #REQUIRED>`, `book.isbn -> book`, "sat"},
		{"absolute", `<!ELEMENT db (a+, b+)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ATTLIST b y CDATA #REQUIRED>`, "a.x -> a\nb.y -> b\na.x ⊆ b.y", "sat"},
	}
	for _, c := range cases {
		res := attributed(t, dtd.MustParse(c.dtd), constraint.MustParseSet(c.keys), false)
		rows := res.Attribution
		if len(rows) != 1 || rows[0].Key != "document" || rows[0].Verdict != c.verdict || rows[0].Type == "" {
			t.Errorf("%s: rows = %+v, want one %s document row", c.name, rows, c.verdict)
			continue
		}
		if rows[0].Nodes != res.Stats.ILPNodes || rows[0].Pivots != res.Stats.Pivots {
			t.Errorf("%s: row %+v disagrees with stats %+v", c.name, rows[0], res.Stats)
		}
	}
	d, set := consistency.LoadTestdataSpec(t, "school", "school")
	res := attributed(t, d, set, false)
	if rows := res.Attribution; len(rows) != 1 || rows[0].Key != "document" || !hasFamily(rows[0], "regular") {
		t.Errorf("school: rows = %+v, want one regular-path document row", rows)
	}
	d, set = consistency.LoadTestdataSpec(t, "geography", "geography")
	res = attributed(t, d, set, false)
	if res.Verdict != consistency.Inconsistent || len(res.Attribution) != 0 {
		t.Errorf("geography: verdict %v, rows %+v; want a lint refutation with no rows", res.Verdict, res.Attribution)
	}
}

func hasFamily(r introspect.ScopeCost, fam string) bool {
	for _, f := range r.Families {
		if f == fam {
			return true
		}
	}
	return false
}

// TestAttributionReusedRecorder: rows come from the check's own span
// subtree, so a recorder shared by two checks does not carry the first
// check's rows into the second.
func TestAttributionReusedRecorder(t *testing.T) {
	rec := obs.New()
	opts := consistency.Options{Ledger: introspect.NewLedger(), Obs: rec, SkipLint: true}
	first := experiments.Fig4Hierarchical(3, true)
	if _, err := consistency.Check(first.D, first.Set, opts); err != nil {
		t.Fatal(err)
	}
	d, set := consistency.LoadTestdataSpec(t, "library", "library")
	res, err := consistency.Check(d, set, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkScopeRows(t, "library after Figure 4", res)
	want := attributed(t, d, set, true)
	if len(res.Attribution) != len(want.Attribution) {
		t.Fatalf("reused recorder: %d rows, fresh recorder: %d", len(res.Attribution), len(want.Attribution))
	}
}

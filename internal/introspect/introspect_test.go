package introspect

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestNilPublisherAndLedgerNoOp(t *testing.T) {
	var p *Publisher
	p.SetPhase("lint")
	p.SetScope(1, "k")
	p.Restart()
	p.Publish(Progress{Nodes: 10})
	if _, ok := p.Snapshot(); ok {
		t.Fatal("nil publisher: Snapshot ok = true, want false")
	}
	var l *Ledger
	if l.Enabled() || l.TrackAllocs().TracksAllocs() {
		t.Fatal("nil ledger reports Enabled or TracksAllocs")
	}
	Record(nil, ScopeCost{Key: "document"}, FamilyKey)
}

func TestPublishStampsLocationAndRestarts(t *testing.T) {
	p := NewPublisher()
	p.SetPhase("relative")
	p.SetScope(2, "{db}|country")
	p.Restart()
	p.Restart()
	p.Publish(Progress{Nodes: 512, Depth: 7, MaxDepth: 9, Pivots: 3, BoundLo: 4, BoundHi: 40})
	pr, ok := p.Snapshot()
	if !ok {
		t.Fatal("Snapshot not ok on live publisher")
	}
	if pr.Phase != "relative" || pr.ScopeIndex != 2 || pr.ScopeKey != "{db}|country" {
		t.Fatalf("location not stamped: %+v", pr)
	}
	if pr.Nodes != 512 || pr.Restarts != 2 || pr.BoundHi != 40 {
		t.Fatalf("snapshot fields wrong: %+v", pr)
	}
	if pr.ElapsedUS < 0 {
		t.Fatalf("negative elapsed: %d", pr.ElapsedUS)
	}
	// SetPhase must preserve the scope position and vice versa.
	p.SetPhase("witness")
	p.SetScope(3, "{db}|province")
	p.Publish(Progress{Nodes: 600})
	pr, _ = p.Snapshot()
	if pr.Phase != "witness" || pr.ScopeIndex != 3 {
		t.Fatalf("phase/scope not preserved across partial updates: %+v", pr)
	}
}

func TestSnapshotBeforeFirstPublish(t *testing.T) {
	p := NewPublisher()
	p.SetPhase("lint")
	pr, ok := p.Snapshot()
	if !ok {
		t.Fatal("Snapshot not ok before first Publish")
	}
	if pr.Phase != "lint" || pr.Nodes != 0 {
		t.Fatalf("synthesized snapshot wrong: %+v", pr)
	}
}

// TestConcurrentPublishSnapshot drives writers and readers together;
// under -race this proves the publisher is safe without locks.
func TestConcurrentPublishSnapshot(t *testing.T) {
	p := NewPublisher()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p.SetScope(i, "k")
				p.Publish(Progress{Nodes: i, Pivots: w})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if pr, ok := p.Snapshot(); !ok || pr.Nodes < 0 {
					t.Error("bad snapshot")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestRowsSortedByElapsed(t *testing.T) {
	var spans []obs.SpanInfo
	for _, r := range []struct {
		key string
		us  int64
	}{{"b", 10}, {"a", 30}, {"c", 10}} {
		spans = append(spans, obs.SpanInfo{Path: "scope", Name: "scope", DurationUS: r.us,
			Attrs: []obs.Attr{{Key: "key", Str: r.key}}})
	}
	rows := Rows(spans)
	var got []string
	for _, r := range rows {
		got = append(got, r.Key)
	}
	want := []string{"a", "b", "c"} // 30 first, then the 10µs tie by key
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("row order = %v, want %v", got, want)
	}
}

// TestRowsSelfTime: a row's time is its span's duration less the
// recorded subproblems directly under it and less the time its own
// allocation-counter reads took; other child spans stay in their
// parent's time, and spans Record never annotated yield no row.
func TestRowsSelfTime(t *testing.T) {
	var now time.Time
	rec := obs.New()
	rec.SetClock(func() time.Time { return now })
	tick := func(us int) { now = now.Add(time.Duration(us) * time.Microsecond) }
	root := rec.Start("consistency.check")
	parent := rec.Start("scope")
	tick(10)
	c1 := rec.Start("scope")
	tick(30)
	Record(c1, ScopeCost{Key: "c1", Type: "t1", Verdict: "sat", Nodes: 2, Pivots: 4, Cuts: 1, Allocs: 7, AllocReadUS: 4}, FamilyKey)
	c1.End()
	c2 := rec.Start("scope")
	tick(50)
	g := rec.Start("scope")
	tick(5)
	Record(g, ScopeCost{Key: "g", Allocs: 9}, 0)
	g.End()
	Record(c2, ScopeCost{Key: "c2", LPCalls: 3, Branches: 5, Propagations: 6}, FamilyRelativeKey)
	c2.End()
	enc := rec.Start("encode.absolute")
	tick(7)
	enc.End()
	tick(3)
	Record(parent, ScopeCost{Key: "p", Verdict: "unsat"}, FamilyKey|FamilyRegular|FamilyMultiAttribute)
	parent.End()
	root.End()

	rows := Rows(rec.Spans())
	want := []ScopeCost{
		{Key: "c2", ElapsedUS: 50, LPCalls: 3, Branches: 5, Propagations: 6, Families: []string{"relative-key"}},
		{Key: "c1", Type: "t1", Verdict: "sat", ElapsedUS: 26, Allocs: 7, AllocReadUS: 4, Nodes: 2, Pivots: 4, Cuts: 1, Families: []string{"key"}},
		{Key: "p", Verdict: "unsat", ElapsedUS: 20, Families: []string{"key", "multi-attribute", "regular"}},
		{Key: "g", ElapsedUS: 5, Allocs: 9},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows =\n%+v\nwant\n%+v", rows, want)
	}
}

func TestFamilyNamesSorted(t *testing.T) {
	all := Family(1<<len(familyNames) - 1).Names()
	if len(all) != len(familyNames) || !sort.StringsAreSorted(all) {
		t.Fatalf("Names of every family = %v, want all %d sorted", all, len(familyNames))
	}
	if Family(0).Names() != nil {
		t.Fatal("empty family set has names")
	}
}

func TestByFamilyAggregation(t *testing.T) {
	rows := []ScopeCost{
		{Key: "s1", ElapsedUS: 100, Nodes: 10, Pivots: 2, Families: []string{"key", "foreign-key"}},
		{Key: "s2", ElapsedUS: 50, Nodes: 5, Families: []string{"key"}},
		{Key: "s3", ElapsedUS: 7, Nodes: 1},
	}
	fams := ByFamily(rows)
	byName := map[string]FamilyCost{}
	for _, f := range fams {
		byName[f.Family] = f
	}
	if f := byName["key"]; f.Scopes != 2 || f.ElapsedUS != 150 || f.Nodes != 15 {
		t.Fatalf("key family = %+v", f)
	}
	if f := byName["foreign-key"]; f.Scopes != 1 || f.Pivots != 2 {
		t.Fatalf("foreign-key family = %+v", f)
	}
	if f := byName["(unconstrained)"]; f.Scopes != 1 || f.ElapsedUS != 7 {
		t.Fatalf("unconstrained bucket = %+v", f)
	}
	if fams[0].Family != "key" {
		t.Fatalf("families not sorted by elapsed: %v", fams)
	}
}

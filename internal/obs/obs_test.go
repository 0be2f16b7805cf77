package obs

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// fakeClock returns a clock advancing 1ms per call.
func fakeClock() func() time.Time {
	t := time.Unix(0, 0)
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

func TestSpanNestingAndDurations(t *testing.T) {
	r := New()
	r.SetClock(fakeClock())
	root := r.Start("check")
	child := r.Start("encode")
	child.SetInt("vars", 7)
	child.End()
	sib := r.Start("solve")
	sib.End()
	root.End()

	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	got, enc, solve := spans[0], spans[1], spans[2]
	if got.Path != "check" || enc.Path != "check/encode" || solve.Path != "check/solve" {
		t.Fatalf("tree shape wrong: %q, %q, %q", got.Path, enc.Path, solve.Path)
	}
	if got.DurationUS <= 0 || enc.DurationUS <= 0 {
		t.Fatalf("durations not positive: %v, %v", got.DurationUS, enc.DurationUS)
	}
	if got.DurationUS < enc.DurationUS+solve.DurationUS {
		t.Fatalf("parent %v shorter than children %v + %v",
			got.DurationUS, enc.DurationUS, solve.DurationUS)
	}
	a := enc.Attrs
	if len(a) != 1 || a[0].Key != "vars" || a[0].Int != 7 || !a[0].IsInt {
		t.Fatalf("attrs = %+v", a)
	}
}

func TestEndClosesAbandonedDescendants(t *testing.T) {
	r := New()
	r.SetClock(fakeClock())
	root := r.Start("root")
	r.Start("leaked") // never explicitly ended
	root.End()
	leaked := r.Spans()[1]
	if leaked.Path != "root/leaked" || leaked.DurationUS <= 0 {
		t.Fatalf("abandoned child %q has duration %v", leaked.Path, leaked.DurationUS)
	}
	// After the ancestor's End, the stack is empty: a new span is a
	// fresh root, not a child of the leaked span.
	r.Start("next").End()
	if next := r.Spans()[2]; next.Path != "next" {
		t.Fatalf("span after reopen has path %q, want a root", next.Path)
	}
}

func TestEndIdempotent(t *testing.T) {
	r := New()
	r.SetClock(fakeClock())
	sp := r.Start("s")
	sp.End()
	d := r.Spans()[0].DurationUS
	sp.End()
	if d2 := r.Spans()[0].DurationUS; d2 != d {
		t.Fatalf("duration changed on second End: %v -> %v", d, d2)
	}
}

func TestCountersMonotonic(t *testing.T) {
	r := New()
	r.Add("n", 3)
	r.Add("n", -5) // ignored
	r.Add("n", 2)
	if got := r.Counter("n"); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	r.Set("hw", 9)
	r.Set("hw", 4) // high-water mark keeps 9
	if got := r.Counter("hw"); got != 9 {
		t.Fatalf("high-water = %d, want 9", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 1 << 20} {
		r.Observe("h", v)
	}
	h := r.hists["h"]
	if h.Count != 8 || h.Max != 1<<20 {
		t.Fatalf("count=%d max=%d", h.Count, h.Max)
	}
	want := map[int]int64{0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 21: 1}
	for i, n := range h.Buckets {
		if n != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
	if BucketLo(3) != 4 || BucketLo(0) != 0 || BucketLo(1) != 1 {
		t.Fatalf("BucketLo wrong: %d %d %d", BucketLo(3), BucketLo(0), BucketLo(1))
	}
}

func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	sp := r.Start("x")
	sp.SetInt("k", 1)
	sp.SetString("k", "v")
	sp.SetAttrs(Attr{Key: "k", Str: "v"}, Attr{Key: "n", Int: 1, IsInt: true})
	sp.End()
	r.Add("c", 1)
	r.Set("c", 1)
	r.Observe("h", 1)
	if r.Counter("c") != 0 {
		t.Fatal("nil recorder counted")
	}
	if err := r.WriteTree(nil); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(nil); err != nil {
		t.Fatal(err)
	}
	if r.Enabled() {
		t.Fatal("nil recorder claims enabled")
	}
}

func TestNilRecorderAllocFree(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		sp := r.Start("hot")
		r.Add("n", 1)
		r.Observe("h", 3)
		sp.SetInt("k", 1)
		sp.SetAttrs(Attr{Key: "k", Int: 1, IsInt: true}, Attr{Key: "s", Str: "v"})
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f per op, want 0", allocs)
	}
}

func TestWriteJSONSchema(t *testing.T) {
	r := New()
	r.SetClock(fakeClock())
	root := r.Start("check")
	in := r.Start("ilp.solve")
	in.SetInt("vars", 3)
	in.End()
	root.End()
	r.Add("ilp.nodes", 11)
	r.Observe("depth", 2)

	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	types := map[string]int{}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	var sawChildPath bool
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		typ, _ := m["type"].(string)
		types[typ]++
		if typ == "span" && m["path"] == "check/ilp.solve" {
			sawChildPath = true
			attrs := m["attrs"].(map[string]any)
			if attrs["vars"].(float64) != 3 {
				t.Fatalf("span attrs = %v", attrs)
			}
		}
	}
	if types["span"] != 2 || types["counter"] != 1 || types["hist"] != 1 {
		t.Fatalf("record counts = %v", types)
	}
	if !sawChildPath {
		t.Fatal("no span with nested path check/ilp.solve")
	}
}

func TestWriteTreeOutput(t *testing.T) {
	r := New()
	r.SetClock(fakeClock())
	root := r.Start("check")
	r.Start("encode").End()
	root.End()
	r.Add("cuts", 2)
	var b strings.Builder
	if err := r.WriteTree(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"check", "  encode", "counters:", "cuts"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree output missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentUse(t *testing.T) {
	r := New()
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 500; j++ {
				r.Add("n", 1)
				r.Observe("h", int64(j))
				sp := r.Start("s")
				sp.SetAttrs(Attr{Key: "j", Int: int64(j), IsInt: true}, Attr{Key: "k", Str: "v"})
				sp.End()
			}
		}()
	}
	// Readers take span lists while the writers append attributes.
	for i := 0; i < 8; i++ {
		r.Spans()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if got := r.Counter("n"); got != 4000 {
		t.Fatalf("counter = %d, want 4000", got)
	}
}

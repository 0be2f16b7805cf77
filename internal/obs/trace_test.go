package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// tickClock returns a fake clock advancing one step per reading.
func tickClock(start time.Time, step time.Duration) func() time.Time {
	t := start
	return func() time.Time { t = t.Add(step); return t }
}

// buildFixedTrace records a small deterministic span tree with one
// counter under a fake millisecond clock.
func buildFixedTrace(withRing bool) *Recorder {
	rec := New()
	rec.SetClock(tickClock(time.Unix(1000, 0), time.Millisecond))
	if withRing {
		rec.EnableEvents(0)
	} else {
		// Without the ring the snapshot path anchors on the New()-time
		// epoch; reset it through the same code path for comparable
		// offsets... EnableEvents is the only epoch reset, so offsets
		// differ — the snapshot test below only checks structure.
		_ = rec
	}
	sp := rec.Start("consistency.check")
	esp := rec.Start("encode.absolute")
	esp.SetInt("vars", 7)
	esp.End()
	isp := rec.Start("ilp.solve")
	isp.End()
	sp.SetString("verdict", "consistent")
	sp.End()
	rec.Add("ilp.nodes", 42)
	return rec
}

// TestChromeTraceGolden pins the exporter's span names, categories,
// timestamps, and argument rendering. The build stamp in otherData
// varies by build, so the golden covers the traceEvents array and the
// stamp is checked for key presence only.
func TestChromeTraceGolden(t *testing.T) {
	rec := buildFixedTrace(true)
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var out struct {
		TraceEvents     []map[string]any  `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	got, err := json.Marshal(out.TraceEvents)
	if err != nil {
		t.Fatal(err)
	}
	want := `[` +
		`{"cat":"consistency","name":"consistency.check","ph":"B","pid":1,"tid":1,"ts":1000},` +
		`{"cat":"encode","name":"encode.absolute","ph":"B","pid":1,"tid":1,"ts":2000},` +
		`{"args":{"vars":7},"cat":"encode","name":"encode.absolute","ph":"E","pid":1,"tid":1,"ts":3000},` +
		`{"cat":"ilp","name":"ilp.solve","ph":"B","pid":1,"tid":1,"ts":4000},` +
		`{"cat":"ilp","name":"ilp.solve","ph":"E","pid":1,"tid":1,"ts":5000},` +
		`{"args":{"verdict":"consistent"},"cat":"consistency","name":"consistency.check","ph":"E","pid":1,"tid":1,"ts":6000},` +
		`{"args":{"value":42},"cat":"counter","name":"ilp.nodes","ph":"i","pid":1,"s":"g","tid":1,"ts":6000}` +
		`]`
	if string(got) != want {
		t.Errorf("traceEvents mismatch:\n got %s\nwant %s", got, want)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	for _, k := range []string{"tool", "module", "version", "go_version", "revision", "dirty"} {
		if _, ok := out.OtherData[k]; !ok {
			t.Errorf("otherData missing %q", k)
		}
	}
}

// TestChromeTraceMonotonic checks the span-event timestamps never go
// backwards, with and without the ring.
func TestChromeTraceMonotonic(t *testing.T) {
	for _, withRing := range []bool{true, false} {
		rec := buildFixedTrace(withRing)
		var last int64 = -1 << 62
		for _, e := range rec.traceEvents() {
			if e.Phase == 'i' {
				continue
			}
			if e.TS < last {
				t.Fatalf("withRing=%t: timestamp %d after %d", withRing, e.TS, last)
			}
			last = e.TS
		}
	}
}

// TestSnapshotDerivedTrace checks the exporter works without a ring:
// B/E pairs are derived from the span tree in nesting order.
func TestSnapshotDerivedTrace(t *testing.T) {
	rec := buildFixedTrace(false)
	var phases []string
	for _, e := range rec.traceEvents() {
		if e.Phase != 'i' {
			phases = append(phases, string(rune(e.Phase))+":"+e.Name)
		}
	}
	want := []string{
		"B:consistency.check",
		"B:encode.absolute", "E:encode.absolute",
		"B:ilp.solve", "E:ilp.solve",
		"E:consistency.check",
	}
	if len(phases) != len(want) {
		t.Fatalf("got %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("event %d = %q, want %q", i, phases[i], want[i])
		}
	}
}

// TestChromeTraceCounterTrack pins the 'C' counter-track path: Sample
// calls inside a span must come out of WriteChromeTrace as ph:"C"
// events carrying the series value at distinct timestamps, so Perfetto
// renders solver progress (nodes, pivots) as a value-over-time track.
func TestChromeTraceCounterTrack(t *testing.T) {
	rec := New()
	rec.SetClock(tickClock(time.Unix(1000, 0), time.Millisecond))
	rec.EnableEvents(0)
	sp := rec.Start("ilp.solve")
	rec.Sample("ilp.frontier_nodes", 10)
	rec.Sample("ilp.frontier_nodes", 25)
	rec.Sample("ilp.frontier_nodes", 7)
	sp.End()

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var out struct {
		TraceEvents []struct {
			Phase string         `json:"ph"`
			Name  string         `json:"name"`
			TS    int64          `json:"ts"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	var values []float64
	var lastTS int64 = -1
	for _, e := range out.TraceEvents {
		if e.Phase != "C" {
			continue
		}
		if e.Name != "ilp.frontier_nodes" {
			t.Errorf("counter event name = %q", e.Name)
		}
		v, ok := e.Args["value"].(float64)
		if !ok {
			t.Fatalf("counter event lacks a numeric value arg: %+v", e)
		}
		if e.TS <= lastTS {
			t.Errorf("counter samples not strictly ordered: ts %d after %d", e.TS, lastTS)
		}
		lastTS = e.TS
		values = append(values, v)
	}
	want := []float64{10, 25, 7}
	if len(values) != len(want) {
		t.Fatalf("got %d 'C' events, want %d: %v", len(values), len(want), values)
	}
	for i := range want {
		if values[i] != want[i] {
			t.Errorf("sample %d = %v, want %v (absolute values, not deltas)", i, values[i], want[i])
		}
	}
}

func TestEventRingBounded(t *testing.T) {
	rec := New()
	rec.EnableEvents(4)
	for i := 0; i < 10; i++ {
		rec.Start("s").End()
	}
	evs := rec.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	if got := rec.DroppedEvents(); got != 16 {
		t.Fatalf("dropped = %d, want 16 (20 produced, 4 kept)", got)
	}
	// Oldest-first ordering: the survivors are the final two B/E pairs.
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("drained events out of order: %v", evs)
		}
	}
}

func TestEventsNilAndDisabled(t *testing.T) {
	var nilRec *Recorder
	nilRec.EnableEvents(8)
	if nilRec.Events() != nil || nilRec.DroppedEvents() != 0 {
		t.Fatal("nil recorder must no-op")
	}
	if err := nilRec.WriteChromeTrace(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	rec := New()
	if rec.Events() != nil {
		t.Fatal("Events() non-nil before EnableEvents")
	}
}

func TestWriteEventsJSONL(t *testing.T) {
	rec := buildFixedTrace(true)
	var buf bytes.Buffer
	if err := rec.WriteEventsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 7 {
		t.Fatalf("got %d JSONL lines, want 7", len(lines))
	}
	for i, ln := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(ln), &obj); err != nil {
			t.Fatalf("line %d is not JSON: %v", i, err)
		}
		if _, ok := obj["ph"]; !ok {
			t.Fatalf("line %d has no ph field: %s", i, ln)
		}
	}
}

func TestSpansFlattening(t *testing.T) {
	rec := buildFixedTrace(true)
	spans := rec.Spans()
	wantPaths := []string{
		"consistency.check",
		"consistency.check/encode.absolute",
		"consistency.check/ilp.solve",
	}
	if len(spans) != len(wantPaths) {
		t.Fatalf("got %d spans, want %d", len(spans), len(wantPaths))
	}
	for i, w := range wantPaths {
		if spans[i].Path != w {
			t.Errorf("span %d path = %q, want %q", i, spans[i].Path, w)
		}
	}
	if spans[0].StartUS != 1000 || spans[0].DurationUS != 5000 {
		t.Errorf("root span timing = (%d, %d), want (1000, 5000)", spans[0].StartUS, spans[0].DurationUS)
	}
	if len(spans[1].Attrs) != 1 || spans[1].Attrs[0].Key != "vars" {
		t.Errorf("encode span attrs = %v", spans[1].Attrs)
	}
}

// TestSpansOpenAndIsolated: Spans reports an open span with its
// elapsed-so-far duration, returns nil for an empty recorder, and
// hands out attribute slices that do not alias the recorder's.
func TestSpansOpenAndIsolated(t *testing.T) {
	rec := New()
	if spans := rec.Spans(); spans != nil {
		t.Fatalf("empty recorder Spans = %v, want nil", spans)
	}
	rec.SetClock(tickClock(time.Unix(1000, 0), time.Millisecond))
	root := rec.Start("server.check")
	root.SetInt("a", 1)
	child := rec.Start("xmlspec.check")
	child.End()
	spans := rec.Spans()
	if len(spans) != 2 || spans[0].Path != "server.check" || spans[1].Path != "server.check/xmlspec.check" {
		t.Fatalf("spans = %+v", spans)
	}
	// Clock ticks: root start 1, child start 2, child end 3, Spans 4.
	if spans[0].DurationUS != 3000 || spans[1].DurationUS != 1000 {
		t.Errorf("durations = %d, %d µs, want 3000 (open), 1000", spans[0].DurationUS, spans[1].DurationUS)
	}
	spans[0].Attrs[0].Int = 99
	if again := rec.Spans(); again[0].Attrs[0].Int != 1 {
		t.Errorf("writing a returned attr reached the recorder: %v", again[0].Attrs)
	}
}

package obs

import (
	"errors"
	"strings"
	"testing"
)

// TestNewTraceIDShape checks generated identifiers have the W3C
// lengths, are lowercase hex, nonzero, and do not repeat.
func TestNewTraceIDShape(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		tid, sid := NewTraceID(), NewSpanID()
		if len(tid) != TraceIDLen || !isLowerHex(tid) || isAllZero(tid) {
			t.Fatalf("bad trace id %q", tid)
		}
		if len(sid) != SpanIDLen || !isLowerHex(sid) || isAllZero(sid) {
			t.Fatalf("bad span id %q", sid)
		}
		if seen[tid] {
			t.Fatalf("trace id %q repeated", tid)
		}
		seen[tid] = true
	}
}

// TestTraceparentRoundTrip: a formatted header must parse back to the
// same identifiers, both for generated IDs and the spec's example.
func TestTraceparentRoundTrip(t *testing.T) {
	for _, pair := range [][2]string{
		{NewTraceID(), NewSpanID()},
		{"4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7"},
	} {
		header := FormatTraceparent(pair[0], pair[1])
		gotTrace, gotParent, err := ParseTraceparent(header)
		if err != nil {
			t.Fatalf("ParseTraceparent(%q): %v", header, err)
		}
		if gotTrace != pair[0] || gotParent != pair[1] {
			t.Fatalf("round trip %q -> (%q, %q)", header, gotTrace, gotParent)
		}
	}
}

// TestParseTraceparentRejects pins the W3C validation rules: bad or
// forbidden versions, short or non-hex ids, all-zero trace/parent
// IDs, and malformed flags must all fail with ErrTraceparent.
func TestParseTraceparentRejects(t *testing.T) {
	const (
		trace  = "4bf92f3577b34da6a3ce929d0e0e4736"
		parent = "00f067aa0ba902b7"
	)
	cases := []struct {
		name, header string
	}{
		{"empty", ""},
		{"too few fields", "00-" + trace + "-" + parent},
		{"version ff", "ff-" + trace + "-" + parent + "-01"},
		{"one-char version", "0-" + trace + "-" + parent + "-01"},
		{"uppercase version", "0A-" + trace + "-" + parent + "-01"},
		{"short trace id", "00-" + trace[:31] + "-" + parent + "-01"},
		{"long trace id", "00-" + trace + "0-" + parent + "-01"},
		{"non-hex trace id", "00-" + strings.Replace(trace, "4", "g", 1) + "-" + parent + "-01"},
		{"uppercase trace id", "00-" + strings.ToUpper(trace) + "-" + parent + "-01"},
		{"all-zero trace id", "00-" + strings.Repeat("0", 32) + "-" + parent + "-01"},
		{"short parent id", "00-" + trace + "-" + parent[:15] + "-01"},
		{"all-zero parent id", "00-" + trace + "-" + strings.Repeat("0", 16) + "-01"},
		{"bad flags", "00-" + trace + "-" + parent + "-0g"},
		{"version 00 extra field", "00-" + trace + "-" + parent + "-01-extra"},
	}
	for _, tc := range cases {
		if _, _, err := ParseTraceparent(tc.header); err == nil {
			t.Errorf("%s: ParseTraceparent(%q) accepted", tc.name, tc.header)
		} else if !errors.Is(err, ErrTraceparent) {
			t.Errorf("%s: error %v does not wrap ErrTraceparent", tc.name, err)
		}
	}
}

// TestParseTraceparentFutureVersion: a non-00 version may carry extra
// dash-separated fields but its leading four must still validate.
func TestParseTraceparentFutureVersion(t *testing.T) {
	const header = "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-what-ever"
	tid, pid, err := ParseTraceparent(header)
	if err != nil {
		t.Fatalf("future version rejected: %v", err)
	}
	if tid != "4bf92f3577b34da6a3ce929d0e0e4736" || pid != "00f067aa0ba902b7" {
		t.Fatalf("got (%q, %q)", tid, pid)
	}
}

// FuzzTraceparent: ParseTraceparent never panics, rejects only with
// ErrTraceparent, and accepts only W3C-shaped identifiers, which
// FormatTraceparent renders into a header that parses back to them.
// Plain `go test` replays the committed corpus under testdata/fuzz.
func FuzzTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, header string) {
		tid, pid, err := ParseTraceparent(header)
		if err != nil {
			if !errors.Is(err, ErrTraceparent) {
				t.Fatalf("ParseTraceparent(%q): error %v does not wrap ErrTraceparent", header, err)
			}
			return
		}
		if len(tid) != TraceIDLen || !isLowerHex(tid) || len(pid) != SpanIDLen || !isLowerHex(pid) {
			t.Fatalf("ParseTraceparent(%q) accepted ids (%q, %q)", header, tid, pid)
		}
		again := FormatTraceparent(tid, pid)
		tid2, pid2, err := ParseTraceparent(again)
		if err != nil || tid2 != tid || pid2 != pid {
			t.Fatalf("%q re-parses to (%q, %q, %v), want (%q, %q)", again, tid2, pid2, err, tid, pid)
		}
	})
}

// TestRecorderTraceID: lazily generated, pinnable, stamped into the
// Chrome-trace header; nil recorders report "".
func TestRecorderTraceID(t *testing.T) {
	var nilRec *Recorder
	if nilRec.TraceID() != "" {
		t.Fatal("nil recorder must report an empty trace id")
	}
	nilRec.SetTraceID("x") // must not panic

	rec := New()
	first := rec.TraceID()
	if len(first) != TraceIDLen || isAllZero(first) {
		t.Fatalf("lazy trace id %q malformed", first)
	}
	if rec.TraceID() != first {
		t.Fatal("trace id not stable across reads")
	}
	rec.SetTraceID("4bf92f3577b34da6a3ce929d0e0e4736")
	if rec.TraceID() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatal("SetTraceID did not stick")
	}
	var buf strings.Builder
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"trace_id": "4bf92f3577b34da6a3ce929d0e0e4736"`) {
		t.Fatal("chrome trace otherData lacks the trace id")
	}
}

// TestSpanIDs: every started span gets a distinct well-formed span ID
// surfaced through Spans().
func TestSpanIDs(t *testing.T) {
	rec := New()
	a := rec.Start("outer")
	b := rec.Start("inner")
	b.End()
	a.End()
	if a.SpanID() == "" || a.SpanID() == b.SpanID() {
		t.Fatalf("span ids not distinct: %q vs %q", a.SpanID(), b.SpanID())
	}
	var nilSpan *Span
	if nilSpan.SpanID() != "" {
		t.Fatal("nil span must report an empty span id")
	}
	for _, si := range rec.Spans() {
		if len(si.SpanID) != SpanIDLen || !isLowerHex(si.SpanID) {
			t.Errorf("span %q has malformed id %q", si.Path, si.SpanID)
		}
	}
}

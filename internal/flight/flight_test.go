package flight

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/introspect"
	"repro/internal/obs"
)

func slowOpts(dir string) Options {
	return Options{Dir: dir, SlowThreshold: time.Millisecond, Interval: time.Hour}
}

func slowReq(trace string) Request {
	rec := obs.New()
	rec.SetTraceID(trace)
	sp := rec.Start("server.check")
	sp.End()
	pub := introspect.NewPublisher()
	pub.SetPhase("relative")
	return Request{
		TraceID:     trace,
		RequestID:   "00000001",
		SpecDigest:  "sha256:abc",
		Op:          "check",
		DTD:         "<!ELEMENT r (a)>",
		Constraints: "key(r.a)",
		Status:      200,
		Verdict:     "consistent",
		Elapsed:     5 * time.Millisecond,
		Rec:         rec,
		Spans:       rec.Spans(),
		Progress:    pub,
	}
}

// TestNilRecorder: a nil recorder must no-op everywhere.
func TestNilRecorder(t *testing.T) {
	var f *Recorder
	if got := f.Observe(slowReq("t")); got != "" {
		t.Fatalf("nil Observe = %q", got)
	}
	if f.Recent(5) != nil || f.Bundles(5) != nil {
		t.Fatal("nil reads must return nil")
	}
	a, b, c := f.Stats()
	if a+b+c != 0 {
		t.Fatal("nil stats must be zero")
	}
}

// TestSlowTriggerDumpsBundle: a slow request dumps a correlated
// <trigger>-<trace_id> pair whose JSON carries the trace, the final
// introspect snapshot, and a goroutine profile.
func TestSlowTriggerDumpsBundle(t *testing.T) {
	dir := t.TempDir()
	f := New(slowOpts(dir))
	const trace = "4bf92f3577b34da6a3ce929d0e0e4736"
	file := f.Observe(slowReq(trace))
	if file != "slow-"+trace+".json" {
		t.Fatalf("bundle file = %q, want slow-%s.json", file, trace)
	}
	data, err := os.ReadFile(filepath.Join(dir, file))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Schema     string               `json:"schema"`
		Trigger    string               `json:"trigger"`
		TraceID    string               `json:"trace_id"`
		Progress   *introspect.Progress `json:"progress"`
		Trace      json.RawMessage      `json:"trace"`
		Goroutines string               `json:"goroutines"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatalf("bundle is not JSON: %v", err)
	}
	if bf.Schema != "flight/v1" || bf.Trigger != TriggerSlow || bf.TraceID != trace {
		t.Fatalf("bundle header = %+v", bf)
	}
	if bf.Progress == nil || bf.Progress.Phase != "relative" {
		t.Fatalf("bundle progress = %+v", bf.Progress)
	}
	if !strings.Contains(string(bf.Trace), `"traceEvents"`) {
		t.Fatal("bundle lacks the Chrome trace")
	}
	if !strings.Contains(bf.Goroutines, "goroutine profile:") {
		t.Fatal("bundle lacks the goroutine profile")
	}
	spec, err := os.ReadFile(filepath.Join(dir, "slow-"+trace+".spec"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# spec_digest: sha256:abc", "# trace_id: " + trace, "%%", "key(r.a)"} {
		if !strings.Contains(string(spec), want) {
			t.Errorf("spec dump missing %q:\n%s", want, spec)
		}
	}
}

// TestTriggerPrecedence: a request that is both slow and errored is
// captured once, under the error trigger.
func TestTriggerPrecedence(t *testing.T) {
	dir := t.TempDir()
	f := New(slowOpts(dir))
	req := slowReq("aaaabbbbccccddddaaaabbbbccccdddd")
	req.Status = 500
	req.Abort = "internal"
	file := f.Observe(req)
	if !strings.HasPrefix(file, "error-") {
		t.Fatalf("bundle file = %q, want error-*", file)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("got %d files, want exactly one .json+.spec pair", len(ents))
	}
	// A deadline abort answers 504 but is an abort, not an error.
	req2 := slowReq("bbbbccccddddeeeebbbbccccddddeeee")
	req2.Status = 504
	req2.Abort = "deadline"
	f2 := New(slowOpts(t.TempDir()))
	if file := f2.Observe(req2); !strings.HasPrefix(file, "abort-") {
		t.Fatalf("deadline bundle = %q, want abort-*", file)
	}
}

// TestRateLimiterShared: the second trigger inside the interval is
// suppressed regardless of its kind.
func TestRateLimiterShared(t *testing.T) {
	dir := t.TempDir()
	f := New(slowOpts(dir))
	if f.Observe(slowReq("11110000111100001111000011110000")) == "" {
		t.Fatal("first trigger must dump")
	}
	errReq := slowReq("22220000222200002222000022220000")
	errReq.Status = 500
	if file := f.Observe(errReq); file != "" {
		t.Fatalf("second dump inside interval = %q, want suppressed", file)
	}
	trig, dumped, supp := f.Stats()
	if trig != 2 || dumped != 1 || supp != 1 {
		t.Fatalf("stats = (%d, %d, %d), want (2, 1, 1)", trig, dumped, supp)
	}
}

// TestVerdictSampling: every Nth inconsistent verdict dumps.
func TestVerdictSampling(t *testing.T) {
	dir := t.TempDir()
	f := New(Options{Dir: dir, SampleInconsistent: 3, Interval: time.Nanosecond})
	dumps := 0
	for i := 0; i < 9; i++ {
		req := slowReq(strings.Repeat("0", 31) + string(rune('1'+i)))
		req.Verdict = "inconsistent"
		time.Sleep(time.Microsecond)
		if f.Observe(req) != "" {
			dumps++
		}
	}
	if dumps != 3 {
		t.Fatalf("dumps = %d, want 3 (every 3rd of 9)", dumps)
	}
	// Consistent verdicts never trip the sampler.
	if f.Observe(slowReq("ffff0000ffff0000ffff0000ffff0000")) != "" {
		t.Fatal("consistent verdict dumped")
	}
}

// TestRingBounded: the ring keeps the newest RingSize entries, newest
// first, and always records, trigger or not.
func TestRingBounded(t *testing.T) {
	f := New(Options{RingSize: 4})
	for i := 0; i < 10; i++ {
		req := Request{TraceID: strings.Repeat("0", 31) + string(rune('a'+i)), Status: 200}
		f.Observe(req)
	}
	got := f.Recent(0)
	if len(got) != 4 {
		t.Fatalf("ring holds %d, want 4", len(got))
	}
	if got[0].TraceID[31] != 'j' || got[3].TraceID[31] != 'g' {
		t.Fatalf("ring order wrong: %v", got)
	}
	if got2 := f.Recent(2); len(got2) != 2 || got2[0].TraceID != got[0].TraceID {
		t.Fatalf("Recent(2) = %v", got2)
	}
}

// TestSizeCap: an oversized bundle drops its trace but keeps the
// identifying fields.
func TestSizeCap(t *testing.T) {
	dir := t.TempDir()
	f := New(Options{Dir: dir, SlowThreshold: time.Millisecond, Interval: time.Hour, MaxBundleBytes: 2048})
	rec := obs.New()
	rec.SetTraceID("cccc0000cccc0000cccc0000cccc0000")
	for i := 0; i < 200; i++ {
		rec.Start("consistency.check").End()
	}
	req := slowReq("cccc0000cccc0000cccc0000cccc0000")
	req.Rec = rec
	file := f.Observe(req)
	if file == "" {
		t.Fatal("oversized bundle not dumped at all")
	}
	data, err := os.ReadFile(filepath.Join(dir, file))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) > 2048 {
		t.Fatalf("bundle is %d bytes, cap 2048", len(data))
	}
	var bf struct {
		TraceID string          `json:"trace_id"`
		Trace   json.RawMessage `json:"trace"`
		Note    string          `json:"note"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.TraceID != "cccc0000cccc0000cccc0000cccc0000" {
		t.Fatal("identity lost under size cap")
	}
	if len(bf.Trace) != 0 || !strings.Contains(bf.Note, "trace dropped") {
		t.Fatalf("trace not dropped: note=%q, %d trace bytes", bf.Note, len(bf.Trace))
	}
}

// TestBundlesNewestFirst: Bundles mirrors the dump history.
func TestBundlesNewestFirst(t *testing.T) {
	dir := t.TempDir()
	f := New(Options{Dir: dir, SlowThreshold: time.Millisecond, Interval: time.Nanosecond})
	f.Observe(slowReq("dddd0000dddd0000dddd0000dddd0000"))
	time.Sleep(time.Microsecond)
	f.Observe(slowReq("eeee0000eeee0000eeee0000eeee0000"))
	bs := f.Bundles(0)
	if len(bs) != 2 {
		t.Fatalf("got %d bundles, want 2", len(bs))
	}
	if bs[0].TraceID != "eeee0000eeee0000eeee0000eeee0000" || bs[0].Trigger != TriggerSlow {
		t.Fatalf("newest bundle = %+v", bs[0])
	}
}

// TestObserveUsesHandedSpans: the span list handed over in the request
// fills the ring entry, capped at MaxSpans.
func TestObserveUsesHandedSpans(t *testing.T) {
	f := New(Options{MaxSpans: 2})
	req := slowReq("trace-handed")
	req.Spans = []obs.SpanInfo{{Path: "a"}, {Path: "a/b"}, {Path: "a/c"}}
	f.Observe(req)
	got := f.Recent(1)[0].Spans
	if len(got) != 2 || got[0].Path != "a" || got[1].Path != "a/b" {
		t.Fatalf("ring spans = %+v, want the first two handed spans", got)
	}
}

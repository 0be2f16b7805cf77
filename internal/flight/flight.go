// Package flight is the daemon's anomaly flight recorder: an
// always-on bounded ring of recent per-request event streams, plus a
// trigger-driven dumper that writes a correlated bundle to disk when a
// request goes wrong.
//
// Every finished request is Observed into the ring — trace ID, spec
// digest, verdict, elapsed time, and a capped copy of its span stream
// — so the last N requests are always reconstructible in memory even
// when nothing was slow enough to persist. When a request trips a
// trigger (slow threshold, 5xx/panic, abort, or inconsistent-verdict
// sampling), the recorder dumps a bundle pair into Options.Dir:
//
//	<trigger>-<trace_id>.json   correlated bundle: trigger, identity,
//	                            Chrome trace, final introspect snapshot,
//	                            goroutine profile
//	<trigger>-<trace_id>.spec   replayable spec dump (digest header,
//	                            DTD, %% separator, constraint set)
//
// All triggers share one rate limiter and one naming scheme, so a
// request that is both slow and errored is captured exactly once
// (under its most severe trigger), and a storm of anomalies cannot
// flood the directory. Bundles are size-capped: when the marshaled
// bundle exceeds Options.MaxBundleBytes the trace events are dropped
// first, then the goroutine profile truncated, so the identifying
// fields always survive.
//
// A nil *Recorder is the canonical disabled recorder: every method
// no-ops, mirroring the obs and introspect conventions.
package flight

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/introspect"
	"repro/internal/obs"
)

// Trigger names. Precedence when several apply to one request:
// error > abort > slow > verdict.
const (
	TriggerError   = "error"   // 5xx status or handler panic
	TriggerAbort   = "abort"   // deadline exceeded / client canceled
	TriggerSlow    = "slow"    // elapsed >= Options.SlowThreshold
	TriggerVerdict = "verdict" // sampled inconsistent verdict
)

// Options parameterizes a Recorder.
type Options struct {
	// Dir is where bundles land. Empty keeps the in-memory ring but
	// disables dumping.
	Dir string
	// SlowThreshold trips the slow trigger (zero: never).
	SlowThreshold time.Duration
	// Interval rate-limits dumps across all triggers: at most one
	// bundle per interval (zero: one per minute).
	Interval time.Duration
	// SampleInconsistent dumps every Nth inconsistent verdict (zero:
	// the verdict trigger is off). 1 dumps every one.
	SampleInconsistent int
	// MaxBundleBytes caps the .json bundle size (zero: 4 MiB).
	MaxBundleBytes int64
	// RingSize bounds the in-memory request ring (zero: 64).
	RingSize int
	// MaxSpans caps the span stream copied into each ring entry
	// (zero: 64).
	MaxSpans int
	// Logger receives dump failures (nil: failures are dropped —
	// capture must never fail the request it describes).
	Logger *slog.Logger
}

// Recorder is the flight recorder. Create with New; nil no-ops.
type Recorder struct {
	opts Options

	mu               sync.Mutex
	ring             []Entry
	next             int
	full             bool
	lastDump         time.Time
	inconsistentSeen int64
	bundles          []Bundle
	triggered        int64
	dumped           int64
	suppressed       int64
}

// Request is one finished request as the serving layer hands it to
// Observe.
type Request struct {
	TraceID    string
	RequestID  string
	SpecDigest string
	// Op is the endpoint kind ("check", "explain", or a raw path for
	// non-check requests such as a panicking debug handler).
	Op string
	// DTD and Constraints reproduce the spec dump; empty for requests
	// that never parsed a spec.
	DTD         string
	Constraints string
	// Status is the HTTP status sent; Abort classifies an aborted
	// check ("deadline", "canceled", "internal", "panic", or "").
	Status int
	Abort  string
	// Verdict is the decided verdict ("" when none was reached).
	Verdict string
	// Elapsed is the request's latency as its client saw it, from the
	// server's entry; the slow trigger compares it.
	Elapsed time.Duration
	// Rec is the request's recorder; its event stream fills the bundle's
	// Chrome trace. May be nil (panic paths).
	Rec *obs.Recorder
	// Spans is the request's span list as Rec.Spans returns it, already
	// taken by the caller; Observe keeps a capped prefix in the ring
	// entry. May be nil (panic paths).
	Spans []obs.SpanInfo
	// Progress is the request's live-introspection publisher; its
	// final snapshot is embedded in the bundle. May be nil.
	Progress *introspect.Publisher
}

// Entry is one ring slot: the request's identity plus a capped copy
// of its span stream.
type Entry struct {
	Time       time.Time      `json:"time"`
	TraceID    string         `json:"trace_id"`
	RequestID  string         `json:"request_id"`
	SpecDigest string         `json:"spec_digest,omitempty"`
	Op         string         `json:"op,omitempty"`
	Status     int            `json:"status"`
	Abort      string         `json:"abort,omitempty"`
	Verdict    string         `json:"verdict,omitempty"`
	ElapsedUS  int64          `json:"elapsed_us"`
	Trigger    string         `json:"trigger,omitempty"`
	Bundle     string         `json:"bundle,omitempty"`
	Spans      []obs.SpanInfo `json:"spans,omitempty"`
}

// Bundle describes one dumped bundle, for the status page.
type Bundle struct {
	Time       time.Time `json:"time"`
	File       string    `json:"file"`
	Trigger    string    `json:"trigger"`
	TraceID    string    `json:"trace_id"`
	RequestID  string    `json:"request_id"`
	SpecDigest string    `json:"spec_digest,omitempty"`
	Bytes      int64     `json:"bytes"`
}

// bundleFile is the on-disk .json schema.
type bundleFile struct {
	Schema     string               `json:"schema"` // "flight/v1"
	Trigger    string               `json:"trigger"`
	Time       string               `json:"time"`
	TraceID    string               `json:"trace_id"`
	RequestID  string               `json:"request_id"`
	SpecDigest string               `json:"spec_digest,omitempty"`
	Op         string               `json:"op,omitempty"`
	Status     int                  `json:"status"`
	Abort      string               `json:"abort,omitempty"`
	Verdict    string               `json:"verdict,omitempty"`
	ElapsedUS  int64                `json:"elapsed_us"`
	Progress   *introspect.Progress `json:"progress,omitempty"`
	// Trace is the request's Chrome trace-event export; replaced by
	// Note when the bundle exceeds the size cap.
	Trace      json.RawMessage `json:"trace,omitempty"`
	Goroutines string          `json:"goroutines,omitempty"`
	Note       string          `json:"note,omitempty"`
}

// New builds a flight recorder. The caller is responsible for
// Options.Dir existing when set.
func New(opts Options) *Recorder {
	if opts.Interval == 0 {
		opts.Interval = time.Minute
	}
	if opts.MaxBundleBytes == 0 {
		opts.MaxBundleBytes = 4 << 20
	}
	if opts.RingSize == 0 {
		opts.RingSize = 64
	}
	if opts.MaxSpans == 0 {
		opts.MaxSpans = 64
	}
	return &Recorder{opts: opts, ring: make([]Entry, opts.RingSize)}
}

// Observe records a finished request into the ring, evaluates the
// triggers, and dumps a bundle when one fires and the rate limiter
// admits it. It returns the bundle's .json filename (base name, not
// path) when a dump happened, "" otherwise.
func (f *Recorder) Observe(req Request) string {
	if f == nil {
		return ""
	}
	entry := Entry{
		Time:       time.Now(),
		TraceID:    req.TraceID,
		RequestID:  req.RequestID,
		SpecDigest: req.SpecDigest,
		Op:         req.Op,
		Status:     req.Status,
		Abort:      req.Abort,
		Verdict:    req.Verdict,
		ElapsedUS:  req.Elapsed.Microseconds(),
		Spans:      cappedSpans(req, f.opts.MaxSpans),
	}

	f.mu.Lock()
	entry.Trigger = f.classifyLocked(req)
	admit := false
	if entry.Trigger != "" {
		f.triggered++
		if f.opts.Dir != "" {
			if time.Since(f.lastDump) >= f.opts.Interval {
				f.lastDump = time.Now()
				admit = true
			} else {
				f.suppressed++
			}
		}
	}
	slot := f.next
	f.ring[slot] = entry
	f.next = (f.next + 1) % len(f.ring)
	if f.next == 0 {
		f.full = true
	}
	f.mu.Unlock()

	if !admit {
		return ""
	}
	file, size, err := f.dump(entry.Trigger, req)
	if err != nil {
		if f.opts.Logger != nil {
			f.opts.Logger.Error("flight dump failed",
				"trigger", entry.Trigger, "trace_id", req.TraceID, "err", err)
		}
		return ""
	}
	f.mu.Lock()
	f.dumped++
	f.ring[slot].Bundle = file
	f.bundles = append(f.bundles, Bundle{
		Time:       entry.Time,
		File:       file,
		Trigger:    entry.Trigger,
		TraceID:    req.TraceID,
		RequestID:  req.RequestID,
		SpecDigest: req.SpecDigest,
		Bytes:      size,
	})
	const maxBundles = 128
	if len(f.bundles) > maxBundles {
		f.bundles = f.bundles[len(f.bundles)-maxBundles:]
	}
	f.mu.Unlock()
	return file
}

// classifyLocked picks the most severe applicable trigger (caller
// holds mu; the inconsistent-verdict sample counter mutates).
func (f *Recorder) classifyLocked(req Request) string {
	switch {
	case req.Status >= 500 || req.Abort == "panic" || req.Abort == "internal":
		// A deadline abort answers 504; classify it as an abort, not an
		// error — the check was healthy, the budget was not.
		if req.Abort == "deadline" {
			return TriggerAbort
		}
		return TriggerError
	case req.Abort != "":
		return TriggerAbort
	case f.opts.SlowThreshold > 0 && req.Elapsed >= f.opts.SlowThreshold:
		return TriggerSlow
	case req.Verdict == "inconsistent" && f.opts.SampleInconsistent > 0:
		f.inconsistentSeen++
		if f.inconsistentSeen%int64(f.opts.SampleInconsistent) == 0 {
			return TriggerVerdict
		}
	}
	return ""
}

// dump writes the bundle pair and returns the .json base filename and
// its size.
func (f *Recorder) dump(trigger string, req Request) (string, int64, error) {
	name := trigger + "-" + req.TraceID
	bf := bundleFile{
		Schema:     "flight/v1",
		Trigger:    trigger,
		Time:       time.Now().UTC().Format(time.RFC3339Nano),
		TraceID:    req.TraceID,
		RequestID:  req.RequestID,
		SpecDigest: req.SpecDigest,
		Op:         req.Op,
		Status:     req.Status,
		Abort:      req.Abort,
		Verdict:    req.Verdict,
		ElapsedUS:  req.Elapsed.Microseconds(),
		Goroutines: goroutineProfile(),
	}
	if snap, ok := req.Progress.Snapshot(); ok {
		bf.Progress = &snap
	}
	if req.Rec != nil {
		var tb strings.Builder
		if err := req.Rec.WriteChromeTrace(&tb); err == nil {
			bf.Trace = json.RawMessage(tb.String())
		}
	}

	data, err := json.MarshalIndent(&bf, "", " ")
	if err != nil {
		return "", 0, err
	}
	if int64(len(data)) > f.opts.MaxBundleBytes {
		bf.Trace = nil
		bf.Note = fmt.Sprintf("trace dropped: bundle exceeded %d bytes", f.opts.MaxBundleBytes)
		if data, err = json.MarshalIndent(&bf, "", " "); err != nil {
			return "", 0, err
		}
	}
	for int64(len(data)) > f.opts.MaxBundleBytes && bf.Goroutines != "" {
		// JSON escaping expands the profile text, so cut twice the
		// overshoot each round until the bundle fits.
		over := int64(len(data)) - f.opts.MaxBundleBytes
		if cut := int64(len(bf.Goroutines)) - 2*over; cut > 0 {
			bf.Goroutines = bf.Goroutines[:cut]
		} else {
			bf.Goroutines = ""
		}
		if !strings.HasSuffix(bf.Note, "goroutine profile truncated") {
			bf.Note += "; goroutine profile truncated"
		}
		if data, err = json.MarshalIndent(&bf, "", " "); err != nil {
			return "", 0, err
		}
	}

	jsonPath := filepath.Join(f.opts.Dir, name+".json")
	if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
		return "", 0, err
	}
	spec := fmt.Sprintf("# spec_digest: %s\n# trace_id: %s\n# request_id: %s\n# trigger: %s\n# elapsed: %s\n\n%s\n%%%%\n%s",
		req.SpecDigest, req.TraceID, req.RequestID, trigger, req.Elapsed, req.DTD, req.Constraints)
	if err := os.WriteFile(filepath.Join(f.opts.Dir, name+".spec"), []byte(spec), 0o644); err != nil {
		return "", 0, err
	}
	return name + ".json", int64(len(data)), nil
}

// goroutineProfile renders the textual goroutine profile (debug=1).
func goroutineProfile() string {
	p := pprof.Lookup("goroutine")
	if p == nil {
		return ""
	}
	var b strings.Builder
	if err := p.WriteTo(&b, 1); err != nil {
		return ""
	}
	return b.String()
}

// cappedSpans returns at most max of the request's spans.
func cappedSpans(req Request, max int) []obs.SpanInfo {
	spans := req.Spans
	if len(spans) > max {
		spans = spans[:max:max]
	}
	return spans
}

// Recent returns up to n ring entries, newest first. n <= 0 returns
// them all.
func (f *Recorder) Recent(n int) []Entry {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	size := f.next
	if f.full {
		size = len(f.ring)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		idx := (f.next - 1 - i + len(f.ring)) % len(f.ring)
		out = append(out, f.ring[idx])
	}
	return out
}

// Bundles returns up to n dumped-bundle records, newest first. n <= 0
// returns them all.
func (f *Recorder) Bundles(n int) []Bundle {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if n <= 0 || n > len(f.bundles) {
		n = len(f.bundles)
	}
	out := make([]Bundle, n)
	for i := 0; i < n; i++ {
		out[i] = f.bundles[len(f.bundles)-1-i]
	}
	return out
}

// Stats reports lifetime totals: requests that tripped a trigger,
// bundles actually dumped, and dumps suppressed by the rate limiter.
func (f *Recorder) Stats() (triggered, dumped, suppressed int64) {
	if f == nil {
		return 0, 0, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.triggered, f.dumped, f.suppressed
}

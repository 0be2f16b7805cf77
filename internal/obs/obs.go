// Package obs is the checker's observability layer: hierarchical
// wall-time spans, monotonic counters, and power-of-two bucketed
// histograms, collected by a Recorder and rendered either as a
// human-readable tree or as JSON lines for machine diffing.
//
// The package has no dependencies beyond the standard library and is
// built so that disabled observability is free on the hot paths: a nil
// *Recorder is a valid recorder whose every method is a no-op, so
// instrumented code pays exactly one nil check (and zero allocations)
// per call site when tracing is off. All methods are safe for
// concurrent use on a non-nil Recorder.
//
// Typical use:
//
//	rec := obs.New()
//	sp := rec.Start("consistency.check")
//	sp.SetString("class", "AC_{K,FK}")
//	... work ...
//	rec.Add("ilp.nodes", 42)
//	rec.Observe("ilp.branch_depth", 7)
//	sp.End()
//	rec.WriteTree(os.Stderr)
//	rec.WriteJSON(os.Stdout)
package obs

import (
	"math/bits"
	"sync"
	"time"
)

// Recorder collects spans, counters, and histograms for one pipeline
// run. The zero value is NOT ready for use; call New. A nil *Recorder
// is the canonical disabled recorder: every method no-ops.
type Recorder struct {
	mu sync.Mutex
	// roots are the top-level spans in start order.
	roots []*Span
	// stack tracks the currently open span chain (Start nests under
	// the innermost open span of this recorder).
	stack    []*Span
	counters map[string]int64
	hists    map[string]*Histogram
	// now is the clock, swappable in tests.
	now func() time.Time
	// epoch anchors event timestamps (µs offsets); EnableEvents resets
	// it so a fake clock installed after New still yields sane offsets.
	epoch time.Time
	// events is the bounded ring sink, nil until EnableEvents.
	events *eventRing
	// traceID is the W3C trace ID correlating this recorder's spans
	// with logs, metrics exemplars, and flight bundles. It is lazily
	// generated on first read so recorders created outside a serving
	// context still carry one; the server overrides it with the
	// caller's inbound trace ID via SetTraceID.
	traceID string
}

// New returns an enabled Recorder.
func New() *Recorder {
	r := &Recorder{
		counters: map[string]int64{},
		hists:    map[string]*Histogram{},
		now:      time.Now,
	}
	r.epoch = r.now()
	return r
}

// SetClock replaces the recorder's time source (tests only).
func (r *Recorder) SetClock(now func() time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.now = now
	r.mu.Unlock()
}

// Enabled reports whether the recorder actually records. It lets
// instrumented code skip argument construction that would itself
// allocate.
func (r *Recorder) Enabled() bool { return r != nil }

// SetTraceID pins the recorder's trace ID, normally to the trace ID
// parsed from (or generated for) an inbound traceparent header.
func (r *Recorder) SetTraceID(id string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.traceID = id
	r.mu.Unlock()
}

// TraceID returns the recorder's W3C trace ID, generating one on
// first use. A nil recorder reports "".
func (r *Recorder) TraceID() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.traceID == "" {
		r.traceID = NewTraceID()
	}
	return r.traceID
}

// Span is one timed phase of the pipeline. Spans nest: a span started
// while another is open becomes its child. A nil *Span no-ops.
type Span struct {
	Name  string
	Attrs []Attr

	// id is the span's W3C span ID, assigned at Start.
	id       string
	start    time.Time
	duration time.Duration
	ended    bool
	children []*Span

	rec *Recorder
}

// SpanID returns the span's W3C span ID (16 hex characters). A nil
// span reports "".
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// Attr is one key/value annotation on a span. Exactly one of Int and
// Str is meaningful, selected by IsInt.
type Attr struct {
	Key   string
	Int   int64
	Str   string
	IsInt bool
}

// Start opens a span nested under the innermost open span (or at the
// top level). The returned span must be closed with End; spans left
// open are finalized by the sinks with their elapsed-so-far duration.
func (r *Recorder) Start(name string) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := &Span{Name: name, id: NewSpanID(), start: r.now(), rec: r}
	if n := len(r.stack); n > 0 {
		parent := r.stack[n-1]
		parent.children = append(parent.children, sp)
	} else {
		r.roots = append(r.roots, sp)
	}
	r.stack = append(r.stack, sp)
	if r.events != nil {
		r.events.append(Event{Phase: 'B', Name: name, Cat: category(name), TS: sp.start.Sub(r.epoch).Microseconds()})
	}
	return sp
}

// End closes the span, fixing its wall-time duration. Ending a span
// also ends any still-open descendants (so early returns cannot
// corrupt the stack). End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	r := s.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ended {
		return
	}
	end := r.now()
	// Pop the stack down to and including s, closing abandoned
	// descendants on the way.
	for i := len(r.stack) - 1; i >= 0; i-- {
		sp := r.stack[i]
		r.stack = r.stack[:i]
		if !sp.ended {
			sp.ended = true
			sp.duration = end.Sub(sp.start)
			r.emitEnd(sp, end)
		}
		if sp == s {
			return
		}
	}
	// s was not on the stack (already popped by an ancestor's End):
	// just fix its duration.
	s.ended = true
	s.duration = end.Sub(s.start)
	r.emitEnd(s, end)
}

// emitEnd appends a span-close event to the ring (caller holds mu).
func (r *Recorder) emitEnd(s *Span, end time.Time) {
	if r.events == nil {
		return
	}
	r.events.append(Event{
		Phase: 'E',
		Name:  s.Name,
		Cat:   category(s.Name),
		TS:    end.Sub(r.epoch).Microseconds(),
		Args:  append([]Attr(nil), s.Attrs...),
	})
}

// SetInt annotates the span with an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.SetAttrs(Attr{Key: key, Int: v, IsInt: true})
}

// SetString annotates the span with a string attribute.
func (s *Span) SetString(key, v string) {
	if s == nil {
		return
	}
	s.SetAttrs(Attr{Key: key, Str: v})
}

// SetAttrs appends several attributes under one lock acquisition.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	s.Attrs = append(s.Attrs, attrs...)
	s.rec.mu.Unlock()
}

// Add bumps a monotonic counter by delta (negative deltas are ignored
// so counters stay monotonic).
func (r *Recorder) Add(name string, delta int64) {
	if r == nil || delta <= 0 {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Set raises a counter to at least v (a monotonic high-water mark).
func (r *Recorder) Set(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if v > r.counters[name] {
		r.counters[name] = v
	}
	r.mu.Unlock()
}

// Counter reads a counter (0 when never touched).
func (r *Recorder) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// histBuckets is the number of power-of-two histogram buckets: bucket
// i counts observations v with bits.Len64(v) == i, i.e. bucket 0 is
// v=0, bucket 1 is v=1, bucket 2 is 2..3, bucket 3 is 4..7, and so on
// up to full int64 range.
const histBuckets = 64

// Histogram is a power-of-two bucketed distribution of nonnegative
// observations.
type Histogram struct {
	Count   int64
	Sum     int64
	Max     int64
	Buckets [histBuckets]int64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	return bits.Len64(uint64(v))
}

// BucketIndex exposes the value→bucket mapping so aggregators (the
// telemetry registry's exemplar store) can address buckets the same
// way the histogram does.
func BucketIndex(v int64) int { return bucketOf(v) }

// BucketLo returns the smallest value of bucket i.
func BucketLo(i int) int64 {
	if i <= 0 {
		return 0
	}
	return int64(1) << (i - 1)
}

// Observe records one value into the named histogram.
func (r *Recorder) Observe(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	h.Observe(v)
	r.mu.Unlock()
}

// durationAt is the span's duration, or its elapsed-so-far duration at
// now while it is still open (caller holds the recorder's mu).
func (s *Span) durationAt(now time.Time) time.Duration {
	if !s.ended {
		return now.Sub(s.start)
	}
	return s.duration
}

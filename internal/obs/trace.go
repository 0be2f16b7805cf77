package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/buildinfo"
)

// SpanInfo is one finished (or still-open) span in flat pre-order
// form, the shape reports and audit events consume: the
// slash-joined path identifies the phase, StartUS/DurationUS place it
// on the recorder's event timeline.
type SpanInfo struct {
	Path       string `json:"path"`
	Name       string `json:"name"`
	SpanID     string `json:"span_id,omitempty"`
	StartUS    int64  `json:"start_us"`
	DurationUS int64  `json:"duration_us"`
	Attrs      []Attr `json:"attrs,omitempty"`
}

// Spans returns every recorded span in pre-order with slash-joined
// paths (the same paths WriteJSON emits). Open spans report their
// elapsed-so-far duration. It flattens the span tree alone, under the
// lock, and leaves the counters and histograms untouched.
func (r *Recorder) Spans() []SpanInfo {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	var count func(s *Span) int
	count = func(s *Span) int {
		n := 1
		for _, c := range s.children {
			n += count(c)
		}
		return n
	}
	n := 0
	for _, s := range r.roots {
		n += count(s)
	}
	if n == 0 {
		return nil
	}
	out := make([]SpanInfo, 0, n)
	var walk func(s *Span, prefix string)
	walk = func(s *Span, prefix string) {
		path := s.Name
		if prefix != "" {
			path = prefix + "/" + s.Name
		}
		out = append(out, SpanInfo{
			Path:       path,
			Name:       s.Name,
			SpanID:     s.id,
			StartUS:    s.start.Sub(r.epoch).Microseconds(),
			DurationUS: s.durationAt(now).Microseconds(),
			Attrs:      append([]Attr(nil), s.Attrs...),
		})
		for _, c := range s.children {
			walk(c, path)
		}
	}
	for _, s := range r.roots {
		walk(s, "")
	}
	return out
}

// Under reports whether the span path (as Spans returns it) lies
// strictly below the span path dir.
func Under(path, dir string) bool {
	return len(path) > len(dir) && path[len(dir)] == '/' && path[:len(dir)] == dir
}

// traceEvents assembles the exportable event stream: the ring's
// events when one is attached, otherwise B/E pairs derived from the
// span list. Ringed 'C' counter-track samples (Recorder.Sample)
// pass through unchanged, giving Perfetto a value-over-time track per
// sampled series. Counters and histograms become 'i' instant samples
// stamped at the stream's final timestamp, so a trace always carries
// the run's final tallies even though individual increments are never
// ringed.
func (r *Recorder) traceEvents() []Event {
	events := r.Events()
	if events == nil {
		// Close every open span that does not enclose path, innermost
		// first, so the pairs nest as the tree did.
		var open []SpanInfo
		closeOutside := func(path string) {
			for n := len(open); n > 0 && !Under(path, open[n-1].Path); n = len(open) {
				s := open[n-1]
				open = open[:n-1]
				events = append(events, Event{Phase: 'E', Name: s.Name, Cat: category(s.Name),
					TS: s.StartUS + s.DurationUS, Args: s.Attrs})
			}
		}
		for _, s := range r.Spans() {
			closeOutside(s.Path)
			events = append(events, Event{Phase: 'B', Name: s.Name, Cat: category(s.Name), TS: s.StartUS})
			open = append(open, s)
		}
		closeOutside("")
	}
	counters, hists := r.Metrics()
	var last int64
	for _, e := range events {
		if e.TS > last {
			last = e.TS
		}
	}
	for _, name := range SortedKeys(counters) {
		events = append(events, Event{
			Phase: 'i', Name: name, Cat: "counter", TS: last,
			Args: []Attr{{Key: "value", Int: counters[name], IsInt: true}},
		})
	}
	for _, name := range SortedKeys(hists) {
		h := hists[name]
		events = append(events, Event{
			Phase: 'i', Name: name, Cat: "histogram", TS: last,
			Args: []Attr{
				{Key: "count", Int: h.Count, IsInt: true},
				{Key: "sum", Int: h.Sum, IsInt: true},
				{Key: "max", Int: h.Max, IsInt: true},
			},
		})
	}
	return events
}

// chromeEvent is one entry of the Chrome trace-event format (the JSON
// object format Perfetto and about://tracing load): ph "B"/"E" span
// pairs, ph "C" counter tracks, and ph "i" instants, timestamps in
// microseconds.
type chromeEvent struct {
	Name  string         `json:"name,omitempty"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData"`
}

func attrArgs(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	out := make(map[string]any, len(attrs))
	for _, a := range attrs {
		if a.IsInt {
			out[a.Key] = a.Int
		} else {
			out[a.Key] = a.Str
		}
	}
	return out
}

func toChrome(e Event) chromeEvent {
	ce := chromeEvent{
		Name:  e.Name,
		Cat:   e.Cat,
		Phase: string(rune(e.Phase)),
		TS:    e.TS,
		PID:   1,
		TID:   1,
		Args:  attrArgs(e.Args),
	}
	if e.Phase == 'i' {
		ce.Scope = "g"
	}
	return ce
}

// WriteChromeTrace renders the recorder's events as one Chrome
// trace-event JSON object, loadable in Perfetto (ui.perfetto.dev) or
// about://tracing. The header carries the build stamp, so every trace
// names the binary that produced it, plus the recorder's trace ID so
// an exported trace joins against logs, audit rows, and exemplars. A
// nil recorder writes nothing.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		return nil
	}
	info := buildinfo.Get()
	trace := chromeTrace{
		TraceEvents:     []chromeEvent{},
		DisplayTimeUnit: "ms",
		OtherData: map[string]string{
			"tool":       "repro/internal/obs",
			"module":     info.Module,
			"version":    info.Version,
			"go_version": info.GoVersion,
			"revision":   info.Revision,
			"dirty":      fmt.Sprintf("%t", info.Dirty),
			"trace_id":   r.TraceID(),
		},
	}
	if dropped := r.DroppedEvents(); dropped > 0 {
		trace.OtherData["dropped_events"] = fmt.Sprint(dropped)
	}
	for _, e := range r.traceEvents() {
		trace.TraceEvents = append(trace.TraceEvents, toChrome(e))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(trace)
}

// WriteEventsJSONL renders the same event stream as JSON lines, one
// chrome-format event object per line — the diff- and grep-friendly
// sink.
func (r *Recorder) WriteEventsJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, e := range r.traceEvents() {
		if err := enc.Encode(toChrome(e)); err != nil {
			return err
		}
	}
	return nil
}

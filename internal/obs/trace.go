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
// elapsed-so-far duration.
func (r *Recorder) Spans() []SpanInfo {
	if r == nil {
		return nil
	}
	snap := r.snapshot()
	var out []SpanInfo
	var walk func(s *spanCopy, prefix string)
	walk = func(s *spanCopy, prefix string) {
		path := s.name
		if prefix != "" {
			path = prefix + "/" + s.name
		}
		out = append(out, SpanInfo{
			Path:       path,
			Name:       s.name,
			SpanID:     s.id,
			StartUS:    s.startUS,
			DurationUS: s.duration.Microseconds(),
			Attrs:      s.attrs,
		})
		for _, c := range s.children {
			walk(c, path)
		}
	}
	for _, s := range snap.roots {
		walk(s, "")
	}
	return out
}

// traceEvents assembles the exportable event stream: the ring's
// events when one is attached (plus 'E' closers derived from the
// snapshot are already in the ring), otherwise B/E pairs derived from
// the span tree. Ringed 'C' counter-track samples (Recorder.Sample)
// pass through unchanged, giving Perfetto a value-over-time track per
// sampled series. Counters and histograms become 'i' instant samples
// stamped at the stream's final timestamp, so a trace always carries
// the run's final tallies even though individual increments are never
// ringed.
func (r *Recorder) traceEvents() []Event {
	snap := r.snapshot()
	var events []Event
	if evs := r.Events(); evs != nil {
		events = evs
	} else {
		var walk func(s *spanCopy)
		walk = func(s *spanCopy) {
			events = append(events, Event{Phase: 'B', Name: s.name, Cat: category(s.name), TS: s.startUS})
			for _, c := range s.children {
				walk(c)
			}
			events = append(events, Event{
				Phase: 'E', Name: s.name, Cat: category(s.name),
				TS:   s.startUS + s.duration.Microseconds(),
				Args: s.attrs,
			})
		}
		for _, s := range snap.roots {
			walk(s)
		}
	}
	var last int64
	for _, e := range events {
		if e.TS > last {
			last = e.TS
		}
	}
	for _, c := range snap.counters {
		events = append(events, Event{
			Phase: 'i', Name: c.name, Cat: "counter", TS: last,
			Args: []Attr{{Key: "value", Int: c.val, IsInt: true}},
		})
	}
	for _, hc := range snap.hists {
		events = append(events, Event{
			Phase: 'i', Name: hc.name, Cat: "histogram", TS: last,
			Args: []Attr{
				{Key: "count", Int: hc.h.Count, IsInt: true},
				{Key: "sum", Int: hc.h.Sum, IsInt: true},
				{Key: "max", Int: hc.h.Max, IsInt: true},
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

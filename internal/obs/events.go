package obs

import "strings"

// Event is one entry of the recorder's bounded event sink: a span
// open ('B'), a span close ('E', carrying the span's attributes), an
// instant sample ('i', synthesized by the exporters for counters and
// histograms), or a counter-track sample ('C', appended by Sample —
// Perfetto renders the series as a value-over-time track). TS is
// microseconds since the recorder's epoch.
type Event struct {
	Phase byte
	Name  string
	Cat   string
	TS    int64
	Args  []Attr
}

// DefaultEventCapacity bounds the ring when EnableEvents is called
// with a nonpositive capacity. At two events per span this holds the
// most recent ~4k spans.
const DefaultEventCapacity = 8192

// eventRing is a fixed-capacity circular buffer. When full, appending
// overwrites the oldest event and bumps the dropped count — the sink
// is bounded by construction, so a pathological check cannot grow the
// recorder without limit.
type eventRing struct {
	buf     []Event
	next    int
	full    bool
	dropped int64
}

func (r *eventRing) append(e Event) {
	if r.full {
		r.dropped++
	}
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// drain returns the buffered events oldest-first.
func (r *eventRing) drain() []Event {
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// EnableEvents attaches a bounded ring-buffer event sink of the given
// capacity (DefaultEventCapacity when capacity <= 0) and resets the
// recorder's epoch, so event timestamps count from here. Spans started
// before EnableEvents contribute no 'B' event; their 'E' still fires.
// Calling it again replaces the ring.
func (r *Recorder) EnableEvents(capacity int) {
	if r == nil {
		return
	}
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	r.mu.Lock()
	r.events = &eventRing{buf: make([]Event, capacity)}
	r.epoch = r.now()
	r.mu.Unlock()
}

// Events returns a copy of the buffered events, oldest-first. Nil when
// events were never enabled.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.events == nil {
		return nil
	}
	return r.events.drain()
}

// Sample appends a counter-track sample: one 'C' event carrying the
// series' current value, which the Chrome-trace exporters turn into a
// Perfetto counter track plotting the named quantity over time (e.g.
// solver nodes or simplex pivots during one long check). Unlike Add,
// Sample records a point on a timeline, not a running total — callers
// pass the absolute value of the series at this instant. Without an
// attached ring (and on a nil recorder) Sample is a no-op, so sampled
// hot paths cost a nil-or-ring check and nothing else.
func (r *Recorder) Sample(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.events != nil {
		r.events.append(Event{
			Phase: 'C',
			Name:  name,
			Cat:   category(name),
			TS:    r.now().Sub(r.epoch).Microseconds(),
			Args:  []Attr{{Key: "value", Int: v, IsInt: true}},
		})
	}
	r.mu.Unlock()
}

// DroppedEvents reports how many events the bounded ring discarded.
func (r *Recorder) DroppedEvents() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.events == nil {
		return 0
	}
	return r.events.dropped
}

// category derives a trace category from a span name: the dotted
// prefix ("ilp.solve" → "ilp"), or the whole name when undotted.
func category(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

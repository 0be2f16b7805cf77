package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// WriteTree renders the recorder's spans as an indented tree followed
// by the counters and histogram summaries — the human-facing sink.
// Open spans are shown with their elapsed-so-far duration.
func (r *Recorder) WriteTree(w io.Writer) error {
	if r == nil {
		return nil
	}
	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, s := range r.Spans() {
		depth := strings.Count(s.Path, "/")
		pr("%s%-*s %10s%s\n", strings.Repeat("  ", depth), 32-2*depth, s.Name,
			time.Duration(s.DurationUS)*time.Microsecond, formatAttrs(s.Attrs))
	}
	counters, hists := r.Metrics()
	if len(counters) > 0 {
		pr("counters:\n")
		for _, name := range SortedKeys(counters) {
			pr("  %-32s %d\n", name, counters[name])
		}
	}
	for _, name := range SortedKeys(hists) {
		h := hists[name]
		mean := float64(0)
		if h.Count > 0 {
			mean = float64(h.Sum) / float64(h.Count)
		}
		pr("histogram %s: count=%d mean=%.1f max=%d\n", name, h.Count, mean, h.Max)
		for i, n := range h.Buckets {
			if n == 0 {
				continue
			}
			lo := BucketLo(i)
			hi := BucketLo(i+1) - 1
			if i == 0 {
				pr("  [0]        %d\n", n)
			} else {
				pr("  [%d..%d]  %d\n", lo, hi, n)
			}
		}
	}
	return err
}

func formatAttrs(attrs []Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	var b strings.Builder
	for _, a := range attrs {
		if a.IsInt {
			fmt.Fprintf(&b, "  %s=%d", a.Key, a.Int)
		} else {
			fmt.Fprintf(&b, "  %s=%s", a.Key, a.Str)
		}
	}
	return b.String()
}

// JSON-lines record shapes. Every line is one JSON object with a
// "type" discriminator:
//
//	{"type":"span","path":"check/ilp.solve","name":"ilp.solve",
//	 "us":123,"attrs":{"vars":10}}
//	{"type":"counter","name":"ilp.nodes","value":42}
//	{"type":"hist","name":"ilp.branch_depth","count":5,"sum":12,
//	 "max":4,"buckets":{"0":1,"1":2,"2":2}}
type jsonSpan struct {
	Type  string         `json:"type"`
	Path  string         `json:"path"`
	Name  string         `json:"name"`
	Micro int64          `json:"us"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

type jsonCounter struct {
	Type  string `json:"type"`
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

type jsonHist struct {
	Type    string           `json:"type"`
	Name    string           `json:"name"`
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Max     int64            `json:"max"`
	Buckets map[string]int64 `json:"buckets"`
}

// WriteJSON renders the recorder's state as JSON lines — the machine
// sink. Spans come first (pre-order, with slash-joined paths), then
// counters, then histograms, each sorted by name for diffability.
func (r *Recorder) WriteJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		rec := jsonSpan{Type: "span", Path: s.Path, Name: s.Name, Micro: s.DurationUS, Attrs: attrArgs(s.Attrs)}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	counters, hists := r.Metrics()
	for _, name := range SortedKeys(counters) {
		if err := enc.Encode(jsonCounter{Type: "counter", Name: name, Value: counters[name]}); err != nil {
			return err
		}
	}
	for _, name := range SortedKeys(hists) {
		h := hists[name]
		rec := jsonHist{Type: "hist", Name: name, Count: h.Count, Sum: h.Sum, Max: h.Max,
			Buckets: map[string]int64{}}
		for i, n := range h.Buckets {
			if n != 0 {
				rec.Buckets[fmt.Sprint(BucketLo(i))] = n
			}
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

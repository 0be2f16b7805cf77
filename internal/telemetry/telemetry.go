// Package telemetry aggregates per-request obs.Recorder measurements
// into a process-wide registry and renders it in the Prometheus text
// exposition format (version 0.0.4). It has no dependency beyond the
// standard library: metrics are scraped with plain HTTP.
//
// The registry distinguishes three metric families:
//
//   - counters, absorbed from recorder counter maps and from direct
//     Add calls, exported with a `_total` suffix;
//   - histograms, absorbed from recorder histograms via
//     obs.Histogram.Merge, exported as cumulative `_bucket{le="..."}`
//     series plus `_sum`/`_count` and p50/p90/p99 gauges computed from
//     the power-of-two buckets;
//   - gauges, registered as callbacks sampled at scrape time (uptime,
//     goroutine counts, in-flight requests, GC pauses, ...).
//
// Metric names are sanitized to the Prometheus grammar and prefixed
// with a configurable namespace (default "xmlconsist").
package telemetry

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/obs"
)

// Registry accumulates metrics for the lifetime of a process. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	namespace string
	start     time.Time

	mu       sync.Mutex
	counters map[string]int64
	hists    map[string]*obs.Histogram
	gauges   map[string]func() float64
	help     map[string]string
	// exemplars holds, per histogram name, the last exemplar stamped
	// into each power-of-two bucket (keyed by obs.BucketIndex). They
	// ride along the bucket counts in the OpenMetrics exposition but
	// never contribute to the counts themselves — Observe/Absorb do the
	// counting, Exemplar only annotates.
	exemplars map[string]map[int]Exemplar
	// nowUnix is the exemplar timestamp clock, swappable in tests.
	nowUnix func() float64
}

// Exemplar is one traced observation attached to a histogram bucket:
// the trace that produced the bucket's most recent value, with the
// observed value and its unix timestamp in seconds.
type Exemplar struct {
	TraceID string
	Value   int64
	Unix    float64
}

// NewRegistry returns a registry with the given metric namespace
// ("xmlconsist" when empty) and the process gauges pre-registered.
func NewRegistry(namespace string) *Registry {
	if namespace == "" {
		namespace = "xmlconsist"
	}
	r := &Registry{
		namespace: namespace,
		start:     time.Now(),
		counters:  map[string]int64{},
		hists:     map[string]*obs.Histogram{},
		gauges:    map[string]func() float64{},
		help:      map[string]string{},
		exemplars: map[string]map[int]Exemplar{},
		nowUnix:   func() float64 { return float64(time.Now().UnixMilli()) / 1e3 },
	}
	r.registerProcessGauges()
	return r
}

// registerProcessGauges installs the runtime-sampled gauges every
// serving process exports.
func (r *Registry) registerProcessGauges() {
	r.RegisterGauge("process_uptime_seconds",
		"Seconds since the registry was created.",
		func() float64 { return time.Since(r.start).Seconds() })
	r.RegisterGauge("process_goroutines",
		"Number of live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.RegisterGauge("process_gc_pause_seconds_total",
		"Cumulative stop-the-world GC pause time.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.PauseTotalNs) / 1e9
		})
	r.RegisterGauge("process_gc_cycles_total",
		"Completed garbage-collection cycles.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.NumGC)
		})
	r.RegisterGauge("process_heap_alloc_bytes",
		"Bytes of allocated heap objects.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
}

// Add increments a counter by delta.
func (r *Registry) Add(name string, delta int64) {
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Observe records a value into a histogram.
func (r *Registry) Observe(name string, v int64) {
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = &obs.Histogram{}
		r.hists[name] = h
	}
	h.Observe(v)
	r.mu.Unlock()
}

// Exemplar stamps a traced observation onto the histogram bucket that
// v falls into, replacing the bucket's previous exemplar. It does not
// touch the histogram counts — callers pair it with the Observe (or
// recorder Observe + Absorb) that actually counted v — so a request
// observed on a per-request recorder and merged later is never
// double-counted. An empty trace ID is a no-op.
func (r *Registry) Exemplar(name string, v int64, traceID string) {
	if traceID == "" {
		return
	}
	r.mu.Lock()
	m := r.exemplars[name]
	if m == nil {
		m = map[int]Exemplar{}
		r.exemplars[name] = m
	}
	m[obs.BucketIndex(v)] = Exemplar{TraceID: traceID, Value: v, Unix: r.nowUnix()}
	r.mu.Unlock()
}

// RegisterGauge installs a callback sampled at scrape time. Re-using a
// name replaces the callback.
func (r *Registry) RegisterGauge(name, help string, fn func() float64) {
	r.mu.Lock()
	r.gauges[name] = fn
	if help != "" {
		r.help[name] = help
	}
	r.mu.Unlock()
}

// Help attaches a HELP string to a counter or histogram name (gauges
// set theirs at registration).
func (r *Registry) Help(name, help string) {
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

// Absorb folds a request recorder's counters and histograms into the
// registry. It is the bridge between per-request observability and
// process-wide metrics: the recorder keeps its data (for the request's
// own trace), the registry accumulates across requests. A nil recorder
// is a no-op.
func (r *Registry) Absorb(rec *obs.Recorder) {
	counters, hists := rec.Metrics()
	if counters == nil && hists == nil {
		return
	}
	r.mu.Lock()
	for name, v := range counters {
		r.counters[name] += v
	}
	for name, h := range hists {
		dst := r.hists[name]
		if dst == nil {
			dst = &obs.Histogram{}
			r.hists[name] = dst
		}
		dst.Merge(h)
	}
	r.mu.Unlock()
}

// snapshot copies the registry state under the lock; gauge callbacks
// run outside it so a gauge may itself take locks.
func (r *Registry) snapshot() (counters map[string]int64, hists map[string]obs.Histogram, gauges map[string]func() float64, help map[string]string, exemplars map[string]map[int]Exemplar) {
	r.mu.Lock()
	defer r.mu.Unlock()
	counters = make(map[string]int64, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	hists = make(map[string]obs.Histogram, len(r.hists))
	for k, h := range r.hists {
		hists[k] = *h
	}
	gauges = make(map[string]func() float64, len(r.gauges))
	for k, fn := range r.gauges {
		gauges[k] = fn
	}
	help = make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	exemplars = make(map[string]map[int]Exemplar, len(r.exemplars))
	for k, m := range r.exemplars {
		cp := make(map[int]Exemplar, len(m))
		for i, ex := range m {
			cp[i] = ex
		}
		exemplars[k] = cp
	}
	return counters, hists, gauges, help, exemplars
}

// WritePrometheus renders the registry in the text exposition format
// (version 0.0.4): every line is either a `# HELP`/`# TYPE` comment or
// a `name{labels} value` sample. Families are sorted by name so
// scrapes are deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writeExposition(w, false)
}

// WriteOpenMetrics renders the registry in the OpenMetrics text
// format: the same families as WritePrometheus, with `# TYPE` comments
// on family names (the `_total` suffix moves to the sample line),
// bucket exemplars in `# {trace_id="…"} v ts` form, and the mandatory
// `# EOF` terminator.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	return r.writeExposition(w, true)
}

// PrometheusContentType and OpenMetricsContentType are the media types
// the two expositions are served under.
const (
	PrometheusContentType  = "text/plain; version=0.0.4; charset=utf-8"
	OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

// NegotiateExposition picks an exposition for an Accept header:
// OpenMetrics when any listed media type asks for it, the Prometheus
// text format otherwise (including for an empty header).
func NegotiateExposition(accept string) (contentType string, openMetrics bool) {
	for _, part := range strings.Split(accept, ",") {
		mediaType := strings.TrimSpace(strings.SplitN(part, ";", 2)[0])
		if mediaType == "application/openmetrics-text" {
			return OpenMetricsContentType, true
		}
	}
	return PrometheusContentType, false
}

func (r *Registry) writeExposition(w io.Writer, om bool) error {
	counters, hists, gauges, help, exemplars := r.snapshot()
	bw := &errWriter{w: w}

	info := buildinfo.Get()
	infoName := r.metricName("build_info")
	fmt.Fprintf(bw, "# HELP %s Build stamp of the running binary (value is always 1).\n", infoName)
	fmt.Fprintf(bw, "# TYPE %s gauge\n", infoName)
	fmt.Fprintf(bw, "%s{module=%q,version=%q,go=%q,revision=%q,dirty=%q} 1\n",
		infoName, info.Module, info.Version, info.GoVersion, info.Revision,
		fmt.Sprintf("%v", info.Dirty))

	for _, name := range obs.SortedKeys(counters) {
		base := r.metricName(name)
		full := base + "_total"
		if om {
			// OpenMetrics declares the family by its base name; the
			// sample carries the _total suffix.
			r.writeHeader(bw, base, help[name], "counter")
		} else {
			r.writeHeader(bw, full, help[name], "counter")
		}
		fmt.Fprintf(bw, "%s %d\n", full, counters[name])
	}

	for _, name := range obs.SortedKeys(gauges) {
		// A NaN callback value means "no observation to report" (e.g. a
		// latency quantile over an empty rolling window): the family is
		// omitted from the exposition entirely — absence, not a fake 0 —
		// so dashboards and alerts never ingest a made-up sample.
		v := gauges[name]()
		if math.IsNaN(v) {
			continue
		}
		full := r.metricName(name)
		r.writeHeader(bw, full, help[name], "gauge")
		fmt.Fprintf(bw, "%s %s\n", full, formatFloat(v))
	}

	for _, name := range obs.SortedKeys(hists) {
		h := hists[name]
		full := r.metricName(name)
		r.writeHeader(bw, full, help[name], "histogram")
		snap := h.Snapshot()
		ex := exemplars[name]
		maxIdx := len(snap.Buckets) // first bucket index past the rendered ones
		for i, b := range snap.Buckets {
			fmt.Fprintf(bw, "%s_bucket{le=%q} %d", full, formatFloat(float64(b.UpperBound)), b.Cumulative)
			if om {
				writeExemplar(bw, ex[i])
			}
			fmt.Fprintf(bw, "\n")
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d", full, snap.Count)
		if om {
			// Exemplars stamped past the last occupied bucket belong to
			// the +Inf bucket; keep the most recent one.
			var inf Exemplar
			for i, e := range ex {
				if i >= maxIdx && e.Unix >= inf.Unix {
					inf = e
				}
			}
			writeExemplar(bw, inf)
		}
		fmt.Fprintf(bw, "\n")
		fmt.Fprintf(bw, "%s_sum %d\n", full, snap.Sum)
		fmt.Fprintf(bw, "%s_count %d\n", full, snap.Count)
		for _, q := range []struct {
			suffix string
			v      int64
		}{{"p50", snap.P50}, {"p90", snap.P90}, {"p99", snap.P99}} {
			qn := full + "_" + q.suffix
			fmt.Fprintf(bw, "# TYPE %s gauge\n", qn)
			fmt.Fprintf(bw, "%s %d\n", qn, q.v)
		}
	}
	if om {
		fmt.Fprintf(bw, "# EOF\n")
	}
	return bw.err
}

// writeExemplar appends the OpenMetrics exemplar suffix for a bucket
// sample, or nothing when the bucket has no exemplar.
func writeExemplar(w io.Writer, ex Exemplar) {
	if ex.TraceID == "" {
		return
	}
	fmt.Fprintf(w, " # {trace_id=%q} %d %.3f", ex.TraceID, ex.Value, ex.Unix)
}

// writeHeader emits the HELP (when present) and TYPE comments for a
// family.
func (r *Registry) writeHeader(w io.Writer, fullName, help, typ string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", fullName, escapeHelp(help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", fullName, typ)
}

// metricName prefixes the namespace and sanitizes the result to the
// Prometheus name grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func (r *Registry) metricName(name string) string {
	return SanitizeName(r.namespace + "_" + name)
}

// SanitizeName maps an arbitrary metric name (obs counter names use
// dots, e.g. "ilp.nodes") onto the Prometheus name grammar by
// replacing every disallowed byte with '_'.
func SanitizeName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// escapeHelp escapes backslashes and newlines per the exposition
// format's HELP rules.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a float the way Prometheus expects: integral
// values without an exponent, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case v == float64(int64(v)):
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}

// errWriter latches the first write error so rendering code can stay
// straight-line.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(p)
	ew.err = err
	return n, err
}

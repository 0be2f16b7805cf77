package telemetry

import (
	"sort"
	"strings"
	"testing"
)

// FuzzParseExposition checks the exposition parser on two fronts. Any
// input must parse or be rejected without a panic. And a registry
// holding a counter, a histogram, and a bucket exemplar — sized by the
// fuzzed values — must render in both text formats to expositions that
// parse back to the values it holds, sample for sample.
func FuzzParseExposition(f *testing.F) {
	f.Add("# TYPE t_checks_total counter\nt_checks_total 3\n", uint32(3), uint32(250))
	f.Fuzz(func(t *testing.T, text string, count, value uint32) {
		ParseExposition(text) // must not panic; an error is fine

		const trace = "4bf92f3577b34da6a3ce929d0e0e4736"
		r := NewRegistry("t")
		r.nowUnix = func() float64 { return 1608520832.25 }
		r.Add("checks", int64(count))
		r.Observe("check_us", int64(value))
		r.Exemplar("check_us", int64(value), trace)

		var prom, om strings.Builder
		if err := r.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteOpenMetrics(&om); err != nil {
			t.Fatal(err)
		}
		pe, err := ParseExposition(prom.String())
		if err != nil {
			t.Fatalf("Prometheus exposition does not parse: %v\n%s", err, prom.String())
		}
		oe, err := ParseExposition(om.String())
		if err != nil {
			t.Fatalf("OpenMetrics exposition does not parse: %v\n%s", err, om.String())
		}

		for _, e := range []*Exposition{pe, oe} {
			want := map[string]float64{
				"t_checks_total":   float64(count),
				"t_check_us_count": 1,
				"t_check_us_sum":   float64(value),
			}
			for name, v := range want {
				if s, ok := e.Sample(name); !ok || s.Value != v {
					t.Errorf("%s = %+v (present %v), want %v", name, s, ok, v)
				}
			}
		}

		// Apart from the process gauges, sampled afresh by each write,
		// both formats carry the same samples with the same values.
		pv, ov := sampleValues(pe), sampleValues(oe)
		if len(pv) != len(ov) {
			t.Errorf("Prometheus has %d samples, OpenMetrics %d", len(pv), len(ov))
		}
		for k, v := range pv {
			if w, ok := ov[k]; !ok || w != v {
				t.Errorf("%s: Prometheus %v, OpenMetrics %v (present %v)", k, v, w, ok)
			}
		}

		exemplars := 0
		for _, s := range oe.Samples {
			if s.Exemplar == nil {
				continue
			}
			exemplars++
			if s.Name != "t_check_us_bucket" || s.Exemplar.Value != float64(value) || s.Exemplar.Labels["trace_id"] != trace {
				t.Errorf("exemplar on %s%v = %+v, want value %d trace %s on a check_us bucket",
					s.Name, s.Labels, s.Exemplar, value, trace)
			}
		}
		if exemplars != 1 {
			t.Errorf("OpenMetrics carries %d exemplars, want 1", exemplars)
		}
	})
}

// sampleValues keys an exposition's samples by name and sorted labels,
// leaving out the process gauges.
func sampleValues(e *Exposition) map[string]float64 {
	out := map[string]float64{}
	for _, s := range e.Samples {
		if strings.Contains(s.Name, "_process_") {
			continue
		}
		labels := make([]string, 0, len(s.Labels))
		for k, v := range s.Labels {
			labels = append(labels, k+"="+v)
		}
		sort.Strings(labels)
		out[s.Name+"{"+strings.Join(labels, ",")+"}"] = s.Value
	}
	return out
}

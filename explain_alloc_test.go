package xmlspec

import "testing"

// TestExplainAttributionAllocs pins that Attribution costs an
// explanation nothing: an explanation derives no cost rows, so asking
// for them must not make its sub-checks record spans into a private
// recorder.
func TestExplainAttributionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	spec, err := Parse(load(t, "geography.dtd"), load(t, "geography.keys"))
	if err != nil {
		t.Fatal(err)
	}
	explainAllocs := func(opts *Options) float64 {
		return testing.AllocsPerRun(20, func() {
			ex, err := spec.Explain(opts)
			if err != nil || Verdict(ex.Verdict) != Inconsistent {
				t.Fatalf("%v %v", ex.Verdict, err)
			}
		})
	}
	plain := explainAllocs(&Options{})
	attributed := explainAllocs(&Options{Attribution: true})
	t.Logf("geography explanation: %.0f allocs, %.0f with Attribution", plain, attributed)
	if attributed > plain {
		t.Errorf("Attribution makes an explanation allocate %.0f times, want ≤ %.0f as without it", attributed, plain)
	}
}

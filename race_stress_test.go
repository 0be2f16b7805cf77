package xmlspec

// Concurrency stress: many goroutines run Check against distinct
// specs while sharing one obs.Recorder with an event ring attached.
// The recorder is documented as safe for concurrent use; this test
// exists so `go test -race` exercises that claim across the span
// stack, counters, histograms, the event ring, and the exporters
// being drained mid-flight.

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestConcurrentCheckSharedRecorder(t *testing.T) {
	rec := obs.New()
	rec.EnableEvents(1024)

	sources := []struct{ dtd, keys string }{
		{"<!ELEMENT a (b,b)><!ELEMENT b EMPTY><!ATTLIST b x CDATA #REQUIRED>",
			"b.x -> b"},
		{"<!ELEMENT a (b*)><!ELEMENT b EMPTY><!ATTLIST b x CDATA #REQUIRED>\n<!ATTLIST a y CDATA #REQUIRED>",
			"b.x -> b\na.y -> a\na.y ⊆ b.x"},
		{"<!ELEMENT a (b)><!ELEMENT b EMPTY><!ATTLIST b x CDATA #REQUIRED>\n<!ATTLIST a y CDATA #REQUIRED>",
			"b.x -> b\na.y ⊆ b.x"},
	}

	iters := 20
	if testing.Short() {
		iters = 6
	}

	var wg sync.WaitGroup
	workers := 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				src := sources[(w+i)%len(sources)]
				spec, err := Parse(src.dtd, src.keys)
				if err != nil {
					errs <- err
					return
				}
				spec.SetObserver(rec)
				if _, err := spec.CheckWithReport(nil); err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	// Drain the exporters concurrently with the checkers, so the race
	// detector sees reads overlapping writes.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			var buf bytes.Buffer
			if err := rec.WriteChromeTrace(&buf); err != nil {
				errs <- err
				return
			}
			_ = rec.Spans()
			_ = rec.Events()
		}
	}()

	wg.Wait()
	<-done
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("final trace is not valid JSON: %v", err)
	}
	if len(out.TraceEvents) == 0 {
		t.Fatal("shared recorder produced no trace events")
	}
}

// TestConcurrentParallelCheckSharedRecorder runs hierarchical checks
// in parallel goroutines against one shared recorder: each check
// decomposes into several scopes, so every scope's spans and counters
// land in the recorder while the other checks write to it too.
func TestConcurrentParallelCheckSharedRecorder(t *testing.T) {
	rec := obs.New()
	rec.EnableEvents(1024)

	const hierDTD = `
<!ELEMENT l0 (l1, l1, item0, item0, holder0)>
<!ELEMENT l1 (item1, item1, holder1)>
<!ELEMENT item0 EMPTY>
<!ELEMENT item1 EMPTY>
<!ELEMENT holder0 EMPTY>
<!ELEMENT holder1 EMPTY>
<!ATTLIST item0 v CDATA #REQUIRED>
<!ATTLIST item1 v CDATA #REQUIRED>
<!ATTLIST holder0 v CDATA #REQUIRED>
<!ATTLIST holder1 v CDATA #REQUIRED>
`
	const hierKeys = `
l0(item0.v -> item0)
l1(item1.v -> item1)
l0(holder0.v -> holder0)
l1(holder1.v -> holder1)
l0(item0.v ⊆ holder0.v)
l1(item1.v ⊆ holder1.v)
`

	iters := 10
	if testing.Short() {
		iters = 3
	}

	var wg sync.WaitGroup
	checkers := 4
	errs := make(chan error, checkers)
	for w := 0; w < checkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				spec, err := Parse(hierDTD, hierKeys)
				if err != nil {
					errs <- err
					return
				}
				spec.SetObserver(rec)
				res, err := spec.Consistent(&Options{SkipLint: true, SkipWitness: true})
				if err != nil {
					errs <- err
					return
				}
				if res.Verdict != Inconsistent {
					errs <- errVerdict(res.Verdict)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("shared recorder produced no trace output")
	}
}

type errVerdict Verdict

func (e errVerdict) Error() string { return "unexpected verdict: " + Verdict(e).String() }

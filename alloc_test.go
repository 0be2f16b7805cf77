package xmlspec

import "testing"

// maxLibraryCheckAllocs is the obs-disabled allocation gate on the
// Figure 2 library check: with observability detached and certificate
// capture off, every tracing hook must stay a nil check. `make gates`
// runs it without the race detector; race builds get their own gate,
// since the detector's instrumentation allocates a few times more.
const (
	maxLibraryCheckAllocs     = 314
	maxLibraryCheckAllocsRace = 323
)

func TestLibraryCheckAllocs(t *testing.T) {
	limit := maxLibraryCheckAllocs
	if raceEnabled {
		limit = maxLibraryCheckAllocsRace
	}
	spec := MustParse(benchLibraryDTD, benchLibraryConstraints)
	opts := &Options{SkipWitness: true, SkipCertificate: true}
	n := testing.AllocsPerRun(50, func() {
		res, err := spec.Consistent(opts)
		if err != nil || res.Verdict != Consistent {
			t.Fatalf("%v %v", res.Verdict, err)
		}
	})
	t.Logf("obs-disabled library check: %.0f allocs", n)
	if n > float64(limit) {
		t.Errorf("obs-disabled library check allocates %.0f times, want ≤ %d", n, limit)
	}
}

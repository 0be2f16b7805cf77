package xmlspec

import "testing"

// maxLibraryCheckAllocs is the obs-disabled allocation gate on the
// Figure 2 library check: with observability detached and certificate
// capture off, every tracing hook must stay a nil check. It is the
// bound bench-watch applies to the journaled BenchmarkCheck/obs-disabled
// figure, asserted here on the code under test.
const maxLibraryCheckAllocs = 689

func TestLibraryCheckAllocs(t *testing.T) {
	spec := MustParse(benchLibraryDTD, benchLibraryConstraints)
	opts := &Options{SkipWitness: true, SkipCertificate: true}
	n := testing.AllocsPerRun(50, func() {
		res, err := spec.Consistent(opts)
		if err != nil || res.Verdict != Consistent {
			t.Fatalf("%v %v", res.Verdict, err)
		}
	})
	if n > maxLibraryCheckAllocs {
		t.Errorf("obs-disabled library check allocates %.0f times, want ≤ %d", n, maxLibraryCheckAllocs)
	}
}

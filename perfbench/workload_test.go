package main

import (
	"bytes"
	"testing"

	"repro/internal/consistency"
	"repro/internal/digest"
)

// requestList renders the first n requests of a workload as the bytes
// the daemon would receive, endpoint included.
func requestList(t *testing.T, name string, seed int64, n int) []byte {
	t.Helper()
	w, err := NewWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		buf.WriteString(w.Endpoint)
		buf.Write(w.Request(i).Body())
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestSeedDeterminesRequests(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a := requestList(t, name, 7, 60)
			if b := requestList(t, name, 7, 60); !bytes.Equal(a, b) {
				t.Error("the same seed gave two different request lists")
			}
			if c := requestList(t, name, 8, 60); bytes.Equal(a, c) {
				t.Error("seeds 7 and 8 gave the same request list")
			}
		})
	}
}

// digests returns the digest of each of the first n requests.
func digests(t *testing.T, w *Workload, n int) []string {
	t.Helper()
	out := make([]string, n)
	for i := range out {
		s := w.Request(i)
		d, set, err := parseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = digest.Spec(d, set)
	}
	return out
}

func TestRepeatShare(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		// distinct is how many distinct digests the first n requests
		// must carry.
		distinct int
	}{
		{"small-distinct", 3000, 3000},
		{"explain-inconsistent", 300, 300},
		{"hard-replay", 3 * hardFamilies * hardPerFamily, hardFamilies * hardPerFamily},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := NewWorkload(tc.name, 3)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, d := range digests(t, w, tc.n) {
				seen[d] = true
			}
			if len(seen) != tc.distinct {
				t.Errorf("%d distinct digests in %d requests, want %d", len(seen), tc.n, tc.distinct)
			}
		})
	}
}

// TestExpectedVerdicts decides a sample of every workload in process
// and compares with the verdict the generator claims.
func TestExpectedVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
	}{
		{"small-distinct", 24},
		{"explain-inconsistent", 20},
		{"hard-replay", hardFamilies * hardPerFamily},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := NewWorkload(tc.name, 11)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.n; i++ {
				s := w.Request(i)
				d, set, err := parseSpec(s)
				if err != nil {
					t.Fatal(err)
				}
				res, err := consistency.Check(d, set, consistency.Options{SkipWitness: true})
				if err != nil {
					t.Fatalf("%s: %v", s.Key, err)
				}
				if res.Verdict != s.Expect {
					t.Errorf("%s: Check says %s, generator expects %s", s.Key, res.Verdict, s.Expect)
				}
			}
		})
	}
}

func TestPrefixNamesLeavesKeywordsAndWildcard(t *testing.T) {
	names := map[string]bool{"r": true, "a": true, "x": true}
	got := prefixNames("<!ELEMENT r (a*)> <!ATTLIST a x CDATA #REQUIRED> r._*.a.x -> r._*.a", "p_", names)
	want := "<!ELEMENT p_r (p_a*)> <!ATTLIST p_a p_x CDATA #REQUIRED> p_r._*.p_a.p_x -> p_r._*.p_a"
	if got != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/certificate"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// serveSpec runs one spec request through h in process and returns
// the status and body.
func serveSpec(t testing.TB, h http.Handler, path string, req CheckRequest) (int, []byte) {
	t.Helper()
	return serveSpecContext(context.Background(), t, h, path, req)
}

// serveSpecContext is serveSpec with the request running under ctx.
func serveSpecContext(ctx context.Context, t testing.TB, h http.Handler, path string, req CheckRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx))
	return rr.Code, rr.Body.Bytes()
}

// verdictOf decodes a /check or /explain response body and returns its
// verdict, or "" when the body does not decode.
func verdictOf(body []byte) string {
	var resp CheckResponse
	if json.Unmarshal(body, &resp) != nil {
		return ""
	}
	return resp.Verdict
}

// cacheMetrics reads the verdict cache's counters and gauges from the
// /metrics exposition, keyed by their short names ("hits", "entries").
func cacheMetrics(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	exp, err := telemetry.ParseExposition(rr.Body.String())
	if err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	out := map[string]float64{}
	for _, name := range []string{"hits", "misses", "admits", "evictions", "verify_failures"} {
		s, ok := exp.Sample("xmlconsist_server_cache_" + name + "_total")
		if !ok {
			t.Fatalf("counter server.cache.%s missing from /metrics", name)
		}
		out[name] = s.Value
	}
	for _, name := range []string{"entries", "bytes"} {
		s, ok := exp.Sample("xmlconsist_server_cache_" + name)
		if !ok {
			t.Fatalf("gauge server_cache_%s missing from /metrics", name)
		}
		out[name] = s.Value
	}
	return out
}

// withoutPerRequest decodes a response body and drops the fields that
// differ between two answers to the same request.
func withoutPerRequest(t *testing.T, body []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	delete(m, "request_id")
	delete(m, "trace_id")
	delete(m, "elapsed_us")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	return string(out)
}

// librarySpec is the library fixture renamed by i, so distinct i give
// distinct digests with the same (consistent) verdict.
func librarySpec(i int) CheckRequest {
	book := fmt.Sprintf("book%d", i)
	return CheckRequest{
		DTD:         strings.ReplaceAll(libraryDTD, "book", book),
		Constraints: strings.ReplaceAll(libraryConstraints, "book", book),
	}
}

func hierarchicalSpec(sat bool) CheckRequest {
	in := experiments.Fig4Hierarchical(3, sat)
	return CheckRequest{DTD: in.D.String(), Constraints: in.Set.String()}
}

// slowSpec is an exponential-search spec no short deadline survives.
func slowSpec() CheckRequest {
	in := experiments.Fig3Unary(rand.New(rand.NewSource(7)), 16)
	return CheckRequest{DTD: in.D.String(), Constraints: in.Set.String()}
}

func wantCache(t *testing.T, h http.Handler, want map[string]float64) {
	t.Helper()
	got := cacheMetrics(t, h)
	for name, v := range want {
		if got[name] != v {
			t.Errorf("cache %s = %v, want %v (all: %v)", name, got[name], v, got)
		}
	}
}

func TestCacheThirdCheckIsHit(t *testing.T) {
	geoSolver := CheckRequest{DTD: geoDTD, Constraints: geoConstraints, Options: CheckOptions{SkipLint: true}}
	for _, tc := range []struct {
		name    string
		req     CheckRequest
		verdict string
	}{
		{"library", CheckRequest{DTD: libraryDTD, Constraints: libraryConstraints}, "consistent"},
		{"geography-lint", CheckRequest{DTD: geoDTD, Constraints: geoConstraints}, "inconsistent"},
		{"geography-solver", geoSolver, "inconsistent"},
		{"hierarchical-sat", hierarchicalSpec(true), "consistent"},
		{"hierarchical-unsat", hierarchicalSpec(false), "inconsistent"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewServer(Config{Logger: quietLogger()})
			h := s.Handler()
			var bodies [3][]byte
			for i := range bodies {
				code, out := serveSpec(t, h, "/check", tc.req)
				if code != http.StatusOK {
					t.Fatalf("check %d: status %d: %s", i+1, code, out)
				}
				bodies[i] = out
			}
			wantCache(t, h, map[string]float64{"misses": 2, "admits": 1, "hits": 1, "entries": 1})
			var cr CheckResponse
			if err := json.Unmarshal(bodies[2], &cr); err != nil {
				t.Fatal(err)
			}
			if cr.Verdict != tc.verdict || cr.Certificate == nil {
				t.Fatalf("hit verdict %s, certificate %v; want %s with a certificate", cr.Verdict, cr.Certificate, tc.verdict)
			}
			if first, hit := withoutPerRequest(t, bodies[0]), withoutPerRequest(t, bodies[2]); first != hit {
				t.Errorf("hit body differs from the first response:\nfirst: %s\nhit:   %s", first, hit)
			}

			// The hit's audit event shows the verify span and no solver
			// work: no scope costs, and zero lint/prover/ilp time.
			code, out := serveGet(t, h, "/debug/checks")
			if code != http.StatusOK {
				t.Fatalf("/debug/checks: %d", code)
			}
			var st Status
			if err := json.Unmarshal(out, &st); err != nil {
				t.Fatal(err)
			}
			hit := st.Recent[0]
			if hit.RequestID != cr.RequestID {
				t.Fatalf("newest audit event is %s, want the hit %s", hit.RequestID, cr.RequestID)
			}
			sawVerify := false
			for _, p := range hit.Phases {
				if p.Path == "server.check/server.cache/verify" {
					sawVerify = true
				}
				if strings.Contains(p.Path, "xmlspec.check") {
					t.Errorf("hit ran the checker: phase %s", p.Path)
				}
			}
			if !sawVerify {
				t.Errorf("hit phases %+v lack server.check/server.cache/verify", hit.Phases)
			}
			if len(hit.ScopeCosts) != 0 || hit.PhaseSummary != (PhaseSummary{}) {
				t.Errorf("hit scope costs %v, phase summary %+v; want none", hit.ScopeCosts, hit.PhaseSummary)
			}
		})
	}
}

// perRequest matches the response fields that differ between two
// answers to the same request.
var perRequest = regexp.MustCompile(`"(request_id|trace_id)":"[^"]*"|"elapsed_us":[0-9]+`)

// TestCacheHitBodyIsMissBody requires a verified hit to carry the
// entry's stored certificate bytes and to answer, byte for byte, what
// the miss that stored its verdict answered, apart from the request and
// trace IDs and the elapsed time, for every testdata specification with
// and without the lint prepass.
func TestCacheHitBodyIsMissBody(t *testing.T) {
	read := func(name string) string {
		b, err := os.ReadFile("../../testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, spec := range [][2]string{
		{"library.dtd", "library.keys"},
		{"school.dtd", "school.keys"},
		{"school.dtd", "school-extended.keys"},
		{"geography.dtd", "geography.keys"},
	} {
		for _, skipLint := range []bool{false, true} {
			req := CheckRequest{DTD: read(spec[0]), Constraints: read(spec[1]), Options: CheckOptions{SkipLint: skipLint}}
			s := NewServer(Config{Logger: quietLogger()})
			h := s.Handler()
			var bodies [3][]byte
			for i := range bodies {
				code, out := serveSpec(t, h, "/check", req)
				if code != http.StatusOK {
					t.Fatalf("%s skip_lint=%v check %d: status %d: %s", spec[1], skipLint, i+1, code, out)
				}
				bodies[i] = perRequest.ReplaceAll(out, nil)
			}
			wantCache(t, h, map[string]float64{"misses": 2, "hits": 1})
			if cert := onlyEntry(t, s.cache).cert; !bytes.Contains(bodies[2], append([]byte(`"certificate":`), cert...)) {
				t.Errorf("%s skip_lint=%v: hit body does not carry the stored certificate bytes %s", spec[1], skipLint, cert)
			}
			if !bytes.Equal(bodies[0], bodies[2]) {
				t.Errorf("%s skip_lint=%v: hit body differs from the miss body:\nmiss: %s\nhit:  %s", spec[1], skipLint, bodies[0], bodies[2])
			}
		}
	}
}

func serveGet(t *testing.T, h http.Handler, path string) (int, []byte) {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	return rr.Code, rr.Body.Bytes()
}

// onlyEntry returns the cache's single entry.
func onlyEntry(t *testing.T, c *verdictCache) *cacheEntry {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) != 1 {
		t.Fatalf("cache holds %d entries, want 1", len(c.entries))
	}
	return c.lru.Front().Value.(*cacheEntry)
}

func TestCacheTamperedCertificateIsRedecided(t *testing.T) {
	s := NewServer(Config{Logger: quietLogger()})
	h := s.Handler()
	req := hierarchicalSpec(true)
	for i := 0; i < 2; i++ {
		if code, out := serveSpec(t, h, "/check", req); code != http.StatusOK {
			t.Fatalf("check %d: status %d: %s", i+1, code, out)
		}
	}
	orig := onlyEntry(t, s.cache)

	// Flip one count of the stored witness: a well-formed certificate
	// that no longer proves the verdict.
	var cert certificate.Certificate
	if err := json.Unmarshal(orig.cert, &cert); err != nil {
		t.Fatal(err)
	}
	if cert.Witness == nil || len(cert.Witness.Scopes) == 0 {
		t.Fatalf("want a scope-vector witness, got %s", orig.cert)
	}
	for name, v := range cert.Witness.Scopes[0].Vector {
		cert.Witness.Scopes[0].Vector[name] = v + 7
		break
	}
	bad := *orig
	var err error
	if bad.cert, err = json.Marshal(&cert); err != nil {
		t.Fatal(err)
	}
	s.cache.mu.Lock()
	s.cache.entries[orig.key].Value = &bad
	s.cache.mu.Unlock()

	code, out := serveSpec(t, h, "/check", req)
	if code != http.StatusOK {
		t.Fatalf("check after tamper: status %d: %s", code, out)
	}
	var cr CheckResponse
	if err := json.Unmarshal(out, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Verdict != "consistent" {
		t.Fatalf("verdict after tamper = %s, want consistent", cr.Verdict)
	}
	wantCache(t, h, map[string]float64{"hits": 0, "misses": 3, "verify_failures": 1, "admits": 2, "entries": 1})
	if e := onlyEntry(t, s.cache); e == &bad || !bytes.Equal(e.cert, orig.cert) {
		t.Errorf("tampered entry not replaced by the re-decided verdict")
	}
	if code, _ := serveSpec(t, h, "/check", req); code != http.StatusOK {
		t.Fatalf("check after replacement: status %d", code)
	}
	wantCache(t, h, map[string]float64{"hits": 1, "verify_failures": 1})
}

func TestCacheKeySeparatesOptions(t *testing.T) {
	s := NewServer(Config{Logger: quietLogger()})
	h := s.Handler()
	base := CheckRequest{DTD: libraryDTD, Constraints: libraryConstraints}
	nodes, noWitness := base, base
	nodes.Options.MaxSolverNodes = 5000
	noWitness.Options.SkipWitness = true
	for _, req := range []CheckRequest{base, nodes, noWitness} {
		for i := 0; i < 3; i++ {
			if code, out := serveSpec(t, h, "/check", req); code != http.StatusOK {
				t.Fatalf("status %d: %s", code, out)
			}
		}
	}
	wantCache(t, h, map[string]float64{"entries": 3, "admits": 3, "hits": 3, "misses": 6})
}

func TestCacheBypass(t *testing.T) {
	lib := CheckRequest{DTD: libraryDTD, Constraints: libraryConstraints}
	attribution, noCert := lib, lib
	attribution.Options.Attribution = true
	noCert.Options.SkipCertificate = true
	unknown := slowSpec()
	unknown.Options.MaxSolverNodes = 1
	unknown.Options.SkipLint = true
	deadline := slowSpec()
	deadline.DeadlineMS = 1
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name, path string
		req        CheckRequest
		ctx        context.Context
		status     int
		verdict    string
		// misses counts the lookups: requests whose result is not
		// cacheable still look the key up, bypassed ones never do.
		misses float64
	}{
		{"attribution", "/check", attribution, context.Background(), http.StatusOK, "consistent", 0},
		{"skip-certificate", "/check", noCert, context.Background(), http.StatusOK, "consistent", 0},
		{"explain", "/explain", lib, context.Background(), http.StatusOK, "consistent", 0},
		{"unknown", "/check", unknown, context.Background(), http.StatusOK, "unknown", 3},
		{"deadline", "/check", deadline, context.Background(), http.StatusGatewayTimeout, "", 3},
		{"canceled", "/check", slowSpec(), canceled, 499, "", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewServer(Config{Logger: quietLogger()})
			h := s.Handler()
			for i := 0; i < 3; i++ {
				code, out := serveSpecContext(tc.ctx, t, h, tc.path, tc.req)
				if code != tc.status {
					t.Fatalf("request %d: status %d, want %d: %s", i+1, code, tc.status, out)
				}
				if tc.verdict != "" && verdictOf(out) != tc.verdict {
					t.Fatalf("request %d: want verdict %s: %s", i+1, tc.verdict, out)
				}
			}
			wantCache(t, h, map[string]float64{
				"hits": 0, "misses": tc.misses, "admits": 0, "entries": 0, "bytes": 0,
			})
		})
	}
}

func TestCacheEvictionKeepsBudget(t *testing.T) {
	// Measure one library verdict's entry, then leave room for three.
	probe := NewServer(Config{Logger: quietLogger()})
	for j := 0; j < 2; j++ {
		serveSpec(t, probe.Handler(), "/check", librarySpec(0))
	}
	_, size := probe.cache.stats()
	if size == 0 {
		t.Fatal("probe verdict was not admitted")
	}
	budget := 3*size + size/2

	s := NewServer(Config{Logger: quietLogger()})
	s.cache = newVerdictCache(budget)
	h := s.Handler()
	const specs = 10
	for i := 0; i < specs; i++ {
		for j := 0; j < 2; j++ {
			if code, out := serveSpec(t, h, "/check", librarySpec(i)); code != http.StatusOK {
				t.Fatalf("status %d: %s", code, out)
			}
			if n, b := s.cache.stats(); b > budget || n > 3 {
				t.Fatalf("after spec %d: %d entries, %d bytes; budget %d", i, n, b, budget)
			}
		}
	}
	wantCache(t, h, map[string]float64{"admits": specs, "evictions": specs - 3, "entries": 3})
	// The most recently admitted spec survived; the first was evicted.
	serveSpec(t, h, "/check", librarySpec(specs-1))
	serveSpec(t, h, "/check", librarySpec(0))
	wantCache(t, h, map[string]float64{"hits": 1})
}

// TestCacheAdmitsWholeWorkingSet sends 240 distinct specs round-robin
// three times: every one must be admitted on its second sighting and
// hit on its third, whatever its fingerprint.
func TestCacheAdmitsWholeWorkingSet(t *testing.T) {
	s := NewServer(Config{Logger: quietLogger()})
	h := s.Handler()
	const specs = 240
	for round := 0; round < 3; round++ {
		for i := 0; i < specs; i++ {
			if code, out := serveSpec(t, h, "/check", librarySpec(i)); code != http.StatusOK {
				t.Fatalf("round %d spec %d: status %d: %s", round, i, code, out)
			}
		}
	}
	wantCache(t, h, map[string]float64{
		"admits": specs, "hits": specs, "misses": 2 * specs, "evictions": 0, "entries": specs,
	})
}

// TestCacheConcurrent drives one server from 16 goroutines with a mix
// of shared and per-goroutine specs under a small budget, so the race
// detector sees lookups, admissions, and evictions interleave.
func TestCacheConcurrent(t *testing.T) {
	s := NewServer(Config{Logger: quietLogger()})
	s.cache = newVerdictCache(8 << 10)
	h := s.Handler()
	const workers, perWorker = 16, 24
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				req := librarySpec(i % 4) // shared by every worker
				if i%3 == 0 {
					req = librarySpec(100 + w*perWorker + i) // this worker's own
				}
				code, out := serveSpec(t, h, "/check", req)
				if code != http.StatusOK || verdictOf(out) != "consistent" {
					t.Errorf("worker %d request %d: status %d: %s", w, i, code, out)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	m := cacheMetrics(t, h)
	if m["hits"]+m["misses"] != workers*perWorker {
		t.Errorf("hits %v + misses %v != %d requests", m["hits"], m["misses"], workers*perWorker)
	}
	if m["hits"] == 0 || m["verify_failures"] != 0 || m["bytes"] > 8<<10 {
		t.Errorf("cache metrics %v: want hits, no verify failures, bytes within budget", m)
	}
}

var fingerprintSink uint64

func TestCacheMissPathDoesNotAllocate(t *testing.T) {
	c := newVerdictCache(cacheBudget)
	key := cacheKey{digest: "spec-0123456789abcdef", maxSolverNodes: 5000, skipLint: true}
	if n := testing.AllocsPerRun(100, func() {
		fingerprintSink = key.fingerprint()
		if c.get(key) != nil {
			t.Fatal("empty cache hit")
		}
	}); n != 0 {
		t.Errorf("miss path allocates %v times per lookup, want 0", n)
	}
	other := key
	other.skipWitness = true
	if key.fingerprint() == other.fingerprint() {
		t.Errorf("fingerprint ignores skip_witness")
	}
}

func TestFingerprintSetForgetsOldestFirst(t *testing.T) {
	f := newFingerprintSet(3)
	for fp := uint64(1); fp <= 4; fp++ {
		f.add(fp)
	}
	for fp, want := range map[uint64]bool{1: false, 2: true, 3: true, 4: true} {
		if f.contains(fp) != want {
			t.Errorf("contains(%d) = %v, want %v", fp, !want, want)
		}
	}
}

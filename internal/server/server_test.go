package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/experiments"
	"repro/internal/introspect"
	"repro/internal/telemetry"
)

const libraryDTD = `
<!ELEMENT library (book*)>
<!ELEMENT book (chapter+)>
<!ELEMENT chapter EMPTY>
<!ATTLIST book isbn CDATA #REQUIRED>
<!ATTLIST chapter num CDATA #REQUIRED>
`

const libraryConstraints = `book.isbn -> book`

const geoDTD = `
<!ELEMENT db (country+)>
<!ELEMENT country (province+, capital+)>
<!ELEMENT province (capital, city*)>
<!ELEMENT capital EMPTY>
<!ELEMENT city EMPTY>
<!ATTLIST country name CDATA #REQUIRED>
<!ATTLIST province name CDATA #REQUIRED>
<!ATTLIST capital inProvince CDATA #REQUIRED>
`

const geoConstraints = `
country.name -> country
country(province.name -> province)
country(capital.inProvince -> capital)
country(capital.inProvince ⊆ province.name)
`

// quietLogger drops log output so test runs stay readable.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postCheck(t *testing.T, ts *httptest.Server, req CheckRequest) (*http.Response, []byte) {
	t.Helper()
	return postSpec(t, ts, "/check", req)
}

func postExplain(t *testing.T, ts *httptest.Server, req CheckRequest) (*http.Response, []byte) {
	t.Helper()
	return postSpec(t, ts, "/explain", req)
}

// postSpec POSTs a spec request to one of the two spec routes (/check
// or /explain) and returns the response with its drained body.
func postSpec(t *testing.T, ts *httptest.Server, path string, req CheckRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, out
}

// specRoutes are the two routes that run the serving pipeline; the
// tests pinning shared sink behaviour run over both. metric is the
// route's latency histogram and counter stem, auditOp its audit Op.
var specRoutes = []struct {
	path, metric, counter, auditOp string
}{
	{"/check", "server_check_us", "server_checks_total", ""},
	{"/explain", "server_explain_us", "server_explains_total", "explain"},
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if id := resp.Header.Get("X-Request-Id"); id == "" {
		t.Errorf("missing X-Request-Id header")
	}
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Status != "ok" {
		t.Fatalf("body = %+v, err %v", body, err)
	}
}

func TestCheckConsistent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, out := postCheck(t, ts, CheckRequest{DTD: libraryDTD, Constraints: libraryConstraints})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, out)
	}
	var cr CheckResponse
	if err := json.Unmarshal(out, &cr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if cr.Verdict != "consistent" {
		t.Fatalf("verdict = %q, want consistent", cr.Verdict)
	}
	if cr.Certificate == nil {
		t.Errorf("no certificate attached to definitive verdict")
	}
	if cr.RequestID == "" || cr.RequestID != resp.Header.Get("X-Request-Id") {
		t.Errorf("request id mismatch: body %q, header %q", cr.RequestID, resp.Header.Get("X-Request-Id"))
	}
}

func TestCheckInconsistent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, out := postCheck(t, ts, CheckRequest{DTD: geoDTD, Constraints: geoConstraints})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, out)
	}
	var cr CheckResponse
	if err := json.Unmarshal(out, &cr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if cr.Verdict != "inconsistent" {
		t.Fatalf("verdict = %q, want inconsistent", cr.Verdict)
	}
}

// TestExplainInconsistent drives the /explain surface end to end: the
// inconsistent geography spec must come back with a minimal core,
// repair hints, a certificate stamped with the spec digest, and an
// audit event carrying the "explain" op.
func TestExplainInconsistent(t *testing.T) {
	reg := telemetry.NewRegistry("")
	s, ts := newTestServer(t, Config{Registry: reg})
	resp, out := postExplain(t, ts, CheckRequest{DTD: geoDTD, Constraints: geoConstraints})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, out)
	}
	var er ExplainResponse
	if err := json.Unmarshal(out, &er); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if er.Verdict != "inconsistent" {
		t.Fatalf("verdict = %q, want inconsistent", er.Verdict)
	}
	if len(er.Core) == 0 || len(er.CoreConstraints) != len(er.Core) {
		t.Fatalf("core = %v / %v, want non-empty parallel slices", er.Core, er.CoreConstraints)
	}
	if len(er.Hints) == 0 || er.Cores < 1 {
		t.Errorf("hints = %v over %d cores, want ranked hints", er.Hints, er.Cores)
	}
	if er.Certificate == nil || er.Certificate.SpecDigest != er.SpecDigest {
		t.Errorf("certificate = %+v, want stamped with %s", er.Certificate, er.SpecDigest)
	}

	recent := s.audit.Recent(1)
	if len(recent) != 1 || recent[0].Op != "explain" {
		t.Fatalf("audit event = %+v, want op explain", recent)
	}
	if recent[0].Verdict != "inconsistent" || recent[0].Status != http.StatusOK {
		t.Errorf("audit event = %+v", recent[0])
	}

	// The explain surface has its own counter and latency histogram.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	exp, err := telemetry.ParseExposition(b.String())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if smp, ok := exp.Sample("xmlconsist_server_explains_total"); !ok || smp.Value != 1 {
		t.Errorf("server_explains_total = %+v %v, want 1", smp, ok)
	}
	if _, ok := exp.Sample("xmlconsist_server_explain_us_count"); !ok {
		t.Errorf("server_explain_us histogram missing from exposition")
	}
}

// TestExplainConsistent: a consistent spec explains to its verdict with
// no core and no hints.
func TestExplainConsistent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, out := postExplain(t, ts, CheckRequest{DTD: libraryDTD, Constraints: libraryConstraints})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, out)
	}
	var er ExplainResponse
	if err := json.Unmarshal(out, &er); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if er.Verdict != "consistent" {
		t.Fatalf("verdict = %q, want consistent", er.Verdict)
	}
	if len(er.Core) != 0 || len(er.Hints) != 0 {
		t.Errorf("consistent spec explained with core %v hints %v", er.Core, er.Hints)
	}
	if er.Certificate == nil {
		t.Errorf("no certificate on consistent explanation")
	}
}

// TestExplainDeadline: the minimization loop must respect the request
// deadline, not just the initial check.
func TestExplainDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := experiments.Fig3Unary(rand.New(rand.NewSource(7)), 16)
	resp, out := postExplain(t, ts, CheckRequest{
		DTD:         in.D.String(),
		Constraints: in.Set.String(),
		DeadlineMS:  1,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, out)
	}
	var er ErrorResponse
	if err := json.Unmarshal(out, &er); err != nil || er.Kind != "deadline" {
		t.Fatalf("error body = %s (err %v), want kind deadline", out, err)
	}
}

func TestCheckParseErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Post(ts.URL+"/check", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status = %d, want 400", resp.StatusCode)
	}

	resp2, out := postCheck(t, ts, CheckRequest{DTD: "<!NOT A DTD>", Constraints: ""})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad DTD: status = %d, want 400: %s", resp2.StatusCode, out)
	}
	var er ErrorResponse
	if err := json.Unmarshal(out, &er); err != nil || er.Kind != "parse" {
		t.Errorf("error body = %s (err %v), want kind parse", out, err)
	}
}

// TestCheckDeadline is the acceptance test for cancellable serving: a
// 1ms deadline against an exponential-search spec must produce a
// deadline error, not a verdict, and must leak no goroutines.
func TestCheckDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := experiments.Fig3Unary(rand.New(rand.NewSource(7)), 16)

	// Warm up the connection first so the keepalive goroutines of the
	// client transport and the server's conn handler are part of the
	// baseline, not mistaken for a leak.
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatalf("warm-up: %v", err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	before := runtime.NumGoroutine()
	resp, out := postCheck(t, ts, CheckRequest{
		DTD:         in.D.String(),
		Constraints: in.Set.String(),
		DeadlineMS:  1,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, out)
	}
	var er ErrorResponse
	if err := json.Unmarshal(out, &er); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if er.Kind != "deadline" {
		t.Fatalf("kind = %q, want deadline (%s)", er.Kind, er.Error)
	}

	// The check runs synchronously on the request goroutine, so once
	// the response is in, the goroutine count must return to (near)
	// the warmed-up baseline. postCheck uses the default client, so
	// drain its idle connections as well as the test server's.
	http.DefaultClient.CloseIdleConnections()
	ts.Client().CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before=%d after=%d — leak", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServerDeadlineConfig exercises the server-wide -deadline path
// (no per-request deadline in the body).
func TestServerDeadlineConfig(t *testing.T) {
	_, ts := newTestServer(t, Config{Deadline: time.Millisecond})
	in := experiments.Fig3Unary(rand.New(rand.NewSource(7)), 16)
	resp, out := postCheck(t, ts, CheckRequest{DTD: in.D.String(), Constraints: in.Set.String()})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, out)
	}
}

// TestCheckContextDeadline pins that a request's deadline_ms can only
// tighten the configured deadline: a value whose duration overflows
// int64 nanoseconds must not lift it.
func TestCheckContextDeadline(t *testing.T) {
	const cfgDeadline = 30 * time.Second
	s := NewServer(Config{Deadline: cfgDeadline, Logger: quietLogger()})
	for _, tc := range []struct {
		deadlineMS int64
		want       time.Duration
	}{
		{0, cfgDeadline},
		{5000, 5 * time.Second},
		{9223372036855, cfgDeadline}, // × time.Millisecond overflows int64
		{math.MaxInt64, cfgDeadline},
	} {
		before := time.Now()
		ctx, cancel := s.checkContext(context.Background(), tc.deadlineMS)
		after := time.Now()
		got, ok := ctx.Deadline()
		cancel()
		if !ok {
			t.Errorf("deadline_ms %d: context has no deadline, want %v", tc.deadlineMS, tc.want)
			continue
		}
		if got.Before(before.Add(tc.want)) || got.After(after.Add(tc.want)) {
			t.Errorf("deadline_ms %d: deadline %v away, want %v", tc.deadlineMS, got.Sub(before), tc.want)
		}
	}
}

func TestMetricsExposition(t *testing.T) {
	for _, rt := range specRoutes {
		t.Run(rt.path[1:], func(t *testing.T) {
			reg := telemetry.NewRegistry("")
			_, ts := newTestServer(t, Config{Registry: reg})

			// Drive one request so the latency histograms have observations.
			if resp, out := postSpec(t, ts, rt.path, CheckRequest{DTD: libraryDTD, Constraints: libraryConstraints}); resp.StatusCode != http.StatusOK {
				t.Fatalf("seed request failed: %d %s", resp.StatusCode, out)
			}

			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatalf("GET /metrics: %v", err)
			}
			defer resp.Body.Close()
			text, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			exp, err := telemetry.ParseExposition(string(text))
			if err != nil {
				t.Fatalf("exposition invalid: %v\n%s", err, text)
			}
			for _, want := range []string{
				"xmlconsist_build_info",
				"xmlconsist_server_requests_total",
				"xmlconsist_" + rt.counter,
				"xmlconsist_" + rt.metric + "_count",
				"xmlconsist_server_inflight_checks",
				"xmlconsist_process_goroutines",
			} {
				if _, ok := exp.Sample(want); !ok {
					t.Errorf("metric %s missing from exposition", want)
				}
			}
			// Latency histogram buckets must be present and typed.
			sawBucket := false
			for _, s := range exp.Samples {
				if s.Name == "xmlconsist_"+rt.metric+"_bucket" {
					sawBucket = true
					break
				}
			}
			if !sawBucket {
				t.Errorf("no %s histogram buckets in exposition", rt.metric)
			}
			if ty := exp.Types["xmlconsist_"+rt.metric]; ty != "histogram" {
				t.Errorf("%s TYPE = %q, want histogram", rt.metric, ty)
			}
		})
	}
}

func TestMaxInflight(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1})
	// Occupy the only slot directly — deterministic, no timing games.
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	resp, out := postCheck(t, ts, CheckRequest{DTD: libraryDTD, Constraints: libraryConstraints})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", resp.StatusCode, out)
	}
	var er ErrorResponse
	if err := json.Unmarshal(out, &er); err != nil || er.Kind != "overload" {
		t.Fatalf("error body = %s (err %v), want kind overload", out, err)
	}
}

// TestAdmitAtomic races many admits against a one-slot cap with no
// slot ever released: claiming the slot and comparing against the cap
// are one atomic step, so exactly one caller may win and the committed
// in-flight count must settle at exactly the cap.
func TestAdmitAtomic(t *testing.T) {
	s := NewServer(Config{MaxInflight: 1, Logger: quietLogger()})
	const n = 64
	var admitted atomic.Int64
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	ready.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			rr := httptest.NewRecorder()
			ready.Done()
			<-start
			if s.admit(rr, "req", "") {
				admitted.Add(1)
			} else if rr.Code != http.StatusTooManyRequests {
				t.Errorf("rejected admit answered %d, want 429", rr.Code)
			}
		}()
	}
	ready.Wait()
	close(start)
	done.Wait()
	if got := admitted.Load(); got != 1 {
		t.Errorf("admitted %d of %d concurrent requests under MaxInflight 1, want exactly 1", got, n)
	}
	if got := s.inflight.Load(); got != 1 {
		t.Errorf("inflight = %d after the race, want 1", got)
	}
}

func TestPanicRecovery(t *testing.T) {
	reg := telemetry.NewRegistry("")
	s := NewServer(Config{Registry: reg, Logger: quietLogger()})
	h := s.middleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/panic", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rr.Code)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	exp, err := telemetry.ParseExposition(b.String())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if smp, ok := exp.Sample("xmlconsist_server_panics_total"); !ok || smp.Value != 1 {
		t.Fatalf("server_panics_total = %+v %v, want 1", smp, ok)
	}
}

// TestTraceDir: both routes store their span tree as
// check-<request-id>.json, the one trace-file pattern.
func TestTraceDir(t *testing.T) {
	for _, rt := range specRoutes {
		t.Run(rt.path[1:], func(t *testing.T) {
			dir := t.TempDir()
			_, ts := newTestServer(t, Config{TraceDir: dir})
			resp, out := postSpec(t, ts, rt.path, CheckRequest{DTD: libraryDTD, Constraints: libraryConstraints})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("request failed: %d %s", resp.StatusCode, out)
			}
			var body struct {
				RequestID string `json:"request_id"`
			}
			if err := json.Unmarshal(out, &body); err != nil || body.RequestID == "" {
				t.Fatalf("decode: %v (%s)", err, out)
			}
			path := filepath.Join(dir, fmt.Sprintf("check-%s.json", body.RequestID))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("trace file: %v", err)
			}
			var trace struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &trace); err != nil {
				t.Fatalf("trace is not Chrome trace JSON: %v", err)
			}
			if len(trace.TraceEvents) == 0 {
				t.Fatalf("trace has no events")
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/check")
	if err != nil {
		t.Fatalf("GET /check: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /check status = %d, want 405", resp.StatusCode)
	}
}

func TestCheckResponseCarriesSpecDigest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, out := postCheck(t, ts, CheckRequest{DTD: libraryDTD, Constraints: libraryConstraints})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, out)
	}
	var cr CheckResponse
	if err := json.Unmarshal(out, &cr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !strings.HasPrefix(cr.SpecDigest, "spec-") || len(cr.SpecDigest) != len("spec-")+16 {
		t.Fatalf("spec digest = %q, want spec-<16 hex>", cr.SpecDigest)
	}
	if cr.Certificate == nil || cr.Certificate.SpecDigest != cr.SpecDigest {
		t.Errorf("certificate digest = %+v, want stamped with %s", cr.Certificate, cr.SpecDigest)
	}
	// The same spec must digest identically on a second request.
	_, out2 := postCheck(t, ts, CheckRequest{DTD: libraryDTD, Constraints: libraryConstraints})
	var cr2 CheckResponse
	if err := json.Unmarshal(out2, &cr2); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if cr2.SpecDigest != cr.SpecDigest {
		t.Errorf("digest unstable across requests: %s vs %s", cr.SpecDigest, cr2.SpecDigest)
	}
}

func TestAuditTrail(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "audit.jsonl")
	al, err := audit.New(audit.Options{Path: logPath})
	if err != nil {
		t.Fatal(err)
	}
	defer al.Close()
	_, ts := newTestServer(t, Config{Audit: al})

	resp, out := postCheck(t, ts, CheckRequest{DTD: libraryDTD, Constraints: libraryConstraints})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, out)
	}
	var cr CheckResponse
	if err := json.Unmarshal(out, &cr); err != nil {
		t.Fatalf("decode: %v", err)
	}

	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatalf("audit log: %v", err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) != 1 {
		t.Fatalf("audit log has %d lines, want 1", len(lines))
	}
	var ev audit.Event
	if err := json.Unmarshal(lines[0], &ev); err != nil {
		t.Fatalf("audit line unparsable: %v: %s", err, lines[0])
	}
	if ev.RequestID != cr.RequestID || ev.SpecDigest != cr.SpecDigest {
		t.Errorf("audit event %+v does not match response (id %s, digest %s)", ev, cr.RequestID, cr.SpecDigest)
	}
	if ev.Verdict != "consistent" || ev.CertificateKind != "witness" || ev.Status != http.StatusOK {
		t.Errorf("audit event = %+v", ev)
	}
	if len(ev.Phases) == 0 || ev.Phases[0].Path != "server.check" {
		t.Errorf("audit phases = %+v, want server.check root", ev.Phases)
	}

	// The in-memory views feed the status page.
	if got := al.Recent(1); len(got) != 1 || got[0].RequestID != cr.RequestID {
		t.Errorf("Recent = %+v", got)
	}
	if got := al.Hot(1); len(got) != 1 || got[0].Digest != cr.SpecDigest {
		t.Errorf("Hot = %+v", got)
	}
}

func TestAuditRecordsAborts(t *testing.T) {
	in := experiments.Fig3Unary(rand.New(rand.NewSource(7)), 16)
	for _, rt := range specRoutes {
		t.Run(rt.path[1:], func(t *testing.T) {
			s, ts := newTestServer(t, Config{})
			resp, out := postSpec(t, ts, rt.path, CheckRequest{
				DTD:         in.D.String(),
				Constraints: in.Set.String(),
				DeadlineMS:  1,
			})
			if resp.StatusCode != http.StatusGatewayTimeout {
				t.Fatalf("status = %d, want 504: %s", resp.StatusCode, out)
			}
			recent := s.audit.Recent(1)
			if len(recent) != 1 {
				t.Fatalf("no audit event for aborted request")
			}
			ev := recent[0]
			if ev.Op != rt.auditOp || ev.Abort != "deadline" || ev.Status != http.StatusGatewayTimeout || ev.Verdict != "" {
				t.Errorf("abort event = %+v, want op %q abort deadline status 504", ev, rt.auditOp)
			}
		})
	}
}

func TestStatusEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{SLOTarget: 250 * time.Millisecond})
	resp, out := postCheck(t, ts, CheckRequest{DTD: libraryDTD, Constraints: libraryConstraints})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed check: %d %s", resp.StatusCode, out)
	}
	var cr CheckResponse
	if err := json.Unmarshal(out, &cr); err != nil {
		t.Fatalf("decode: %v", err)
	}

	// JSON view.
	jr, err := http.Get(ts.URL + "/debug/checks")
	if err != nil {
		t.Fatalf("GET /debug/checks: %v", err)
	}
	defer jr.Body.Close()
	if jr.StatusCode != http.StatusOK {
		t.Fatalf("/debug/checks status = %d", jr.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(jr.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	if st.AuditEvents != 1 {
		t.Errorf("audit events = %d, want 1", st.AuditEvents)
	}
	if len(st.Windows) != 3 {
		t.Errorf("windows = %d, want 3 (1m/5m/1h)", len(st.Windows))
	}
	if len(st.Recent) != 1 || st.Recent[0].SpecDigest != cr.SpecDigest {
		t.Errorf("recent = %+v, want the checked digest", st.Recent)
	}
	if len(st.HotDigests) != 1 || st.HotDigests[0].Digest != cr.SpecDigest {
		t.Errorf("hot = %+v", st.HotDigests)
	}
	if st.SLOTargetMS != 250 {
		t.Errorf("slo target = %d, want 250", st.SLOTargetMS)
	}

	// HTML view mentions the digest we just checked.
	hr, err := http.Get(ts.URL + "/debug/status")
	if err != nil {
		t.Fatalf("GET /debug/status: %v", err)
	}
	defer hr.Body.Close()
	html, err := io.ReadAll(hr.Body)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("/debug/status status = %d", hr.StatusCode)
	}
	if ct := hr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(string(html), cr.SpecDigest) {
		t.Errorf("status page does not mention digest %s", cr.SpecDigest)
	}
	if !strings.Contains(string(html), "Rolling windows") {
		t.Errorf("status page missing rolling-window table")
	}
}

func TestRollingAndSLOMetricsExposed(t *testing.T) {
	reg := telemetry.NewRegistry("")
	_, ts := newTestServer(t, Config{Registry: reg, SLOTarget: 250 * time.Millisecond, SLOObjective: 0.999})
	if resp, out := postCheck(t, ts, CheckRequest{DTD: libraryDTD, Constraints: libraryConstraints}); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed check failed: %d %s", resp.StatusCode, out)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	exp, err := telemetry.ParseExposition(string(text))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	for _, want := range []string{
		"xmlconsist_checks_per_second_1m",
		"xmlconsist_check_error_ratio_5m",
		"xmlconsist_check_latency_p99_us_1h",
		"xmlconsist_slo_burn_rate_1m",
		"xmlconsist_slo_target_ms",
		"xmlconsist_slo_objective",
		"xmlconsist_server_audit_events",
		"xmlconsist_server_uptime_seconds",
	} {
		if _, ok := exp.Sample(want); !ok {
			t.Errorf("metric %s missing from exposition", want)
		}
	}
	if s, ok := exp.Sample("xmlconsist_slo_objective"); !ok || s.Value != 0.999 {
		t.Errorf("slo_objective = %+v, want 0.999", s)
	}
}

func TestSlowCaptureQuarantine(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{
		SlowThreshold:       time.Nanosecond, // every check is slow
		QuarantineDir:       dir,
		SlowCaptureInterval: time.Hour, // rate limit: at most one capture
	})
	var first CheckResponse
	for i := 0; i < 3; i++ {
		resp, out := postCheck(t, ts, CheckRequest{DTD: libraryDTD, Constraints: libraryConstraints})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("check %d: %d %s", i, resp.StatusCode, out)
		}
		if i == 0 {
			if err := json.Unmarshal(out, &first); err != nil {
				t.Fatalf("decode: %v", err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		names := []string{}
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("quarantine has %d files %v, want exactly one trace+spec pair", len(entries), names)
	}
	if first.TraceID == "" {
		t.Fatal("check response carries no trace_id")
	}
	tracePath := filepath.Join(dir, "slow-"+first.TraceID+".json")
	specPath := filepath.Join(dir, "slow-"+first.TraceID+".spec")
	bundleData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	var bundle struct {
		Schema  string `json:"schema"`
		Trigger string `json:"trigger"`
		TraceID string `json:"trace_id"`
		Trace   struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		} `json:"trace"`
		Goroutines string `json:"goroutines"`
	}
	if err := json.Unmarshal(bundleData, &bundle); err != nil || len(bundle.Trace.TraceEvents) == 0 {
		t.Fatalf("quarantined bundle invalid (err %v, %d events)", err, len(bundle.Trace.TraceEvents))
	}
	if bundle.Schema != "flight/v1" || bundle.Trigger != "slow" || bundle.TraceID != first.TraceID {
		t.Fatalf("bundle header = %+v", bundle)
	}
	if !strings.Contains(bundle.Goroutines, "goroutine profile:") {
		t.Error("bundle lacks a goroutine profile")
	}
	specData, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	if !strings.Contains(string(specData), first.SpecDigest) {
		t.Errorf("quarantined spec missing digest header:\n%s", specData)
	}
	if !strings.Contains(string(specData), "# trace_id: "+first.TraceID) {
		t.Errorf("quarantined spec missing trace_id header:\n%s", specData)
	}
	if !strings.Contains(string(specData), "<!ELEMENT library") {
		t.Errorf("quarantined spec missing DTD:\n%s", specData)
	}
}

func TestNoQuarantineUnderThreshold(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{
		SlowThreshold: time.Hour, // nothing is slow
		QuarantineDir: dir,
	})
	if resp, out := postCheck(t, ts, CheckRequest{DTD: libraryDTD, Constraints: libraryConstraints}); resp.StatusCode != http.StatusOK {
		t.Fatalf("check failed: %d %s", resp.StatusCode, out)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("quarantine not empty under threshold: %d files", len(entries))
	}
}

// TestCheckAttribution: options.attribution returns the per-scope cost
// ledger in the response, and the audit event carries the capped rows
// whether or not the client asked.
func TestCheckAttribution(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// SkipLint: the geography fixture is otherwise refuted by the lint
	// prepass before any scope subproblem runs, and an empty ledger
	// would make this test vacuous.
	resp, out := postCheck(t, ts, CheckRequest{
		DTD:         geoDTD,
		Constraints: geoConstraints,
		Options:     CheckOptions{Attribution: true, SkipLint: true},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, out)
	}
	var cr CheckResponse
	if err := json.Unmarshal(out, &cr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(cr.Attribution) == 0 {
		t.Fatalf("no attribution rows in response: %s", out)
	}
	row := cr.Attribution[0]
	if row.Key == "" || row.Verdict == "" {
		t.Errorf("attribution row incomplete: %+v", row)
	}

	recent := s.audit.Recent(1)
	if len(recent) != 1 || len(recent[0].ScopeCosts) == 0 {
		t.Errorf("audit event missing scope costs: %+v", recent)
	}

	// Without the option the response omits the rows but the audit
	// trail still gets them.
	_, out2 := postCheck(t, ts, CheckRequest{
		DTD:         geoDTD,
		Constraints: geoConstraints,
		Options:     CheckOptions{SkipLint: true},
	})
	var cr2 CheckResponse
	if err := json.Unmarshal(out2, &cr2); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(cr2.Attribution) != 0 {
		t.Errorf("attribution present without the option: %+v", cr2.Attribution)
	}
	recent = s.audit.Recent(1)
	if len(recent) != 1 || len(recent[0].ScopeCosts) == 0 {
		t.Errorf("audit event missing scope costs without the option: %+v", recent)
	}
}

// TestDebugInflight exercises the live-progress surface
// deterministically: a registered running check whose publisher has
// published a snapshot must show up in /debug/inflight with the
// search fields, and the HTML status page must render its phase.
func TestDebugInflight(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	pub := introspect.NewPublisher()
	pub.SetPhase("relative")
	pub.SetScope(3, "db/country")
	pub.Restart()
	pub.Publish(introspect.Progress{Nodes: 1234, Pivots: 56, LPCalls: 7, BoundLo: 2, BoundHi: -1})
	defer s.track(&request{
		Event: audit.Event{RequestID: "req-test", SpecDigest: "spec-cafecafecafecafe"},
		start: time.Now().Add(-time.Second), pub: pub,
	})()

	resp, err := http.Get(ts.URL + "/debug/inflight")
	if err != nil {
		t.Fatalf("GET /debug/inflight: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var ir InflightResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(ir.Inflight) != 1 {
		t.Fatalf("inflight rows = %+v, want 1", ir.Inflight)
	}
	row := ir.Inflight[0]
	if row.Phase != "relative" || row.ScopeIndex != 3 || row.ScopeKey != "db/country" {
		t.Errorf("location = %q #%d %q", row.Phase, row.ScopeIndex, row.ScopeKey)
	}
	if row.Nodes != 1234 || row.Pivots != 56 || row.LPCalls != 7 || row.Restarts != 1 {
		t.Errorf("search fields = %+v", row)
	}
	if row.BoundLo != 2 || row.BoundHi != -1 {
		t.Errorf("bounds = [%d, %d]", row.BoundLo, row.BoundHi)
	}
	if row.ElapsedMS < 900 {
		t.Errorf("elapsed = %dms, want ~1000", row.ElapsedMS)
	}

	// The status page renders the same row.
	hr, err := http.Get(ts.URL + "/debug/status")
	if err != nil {
		t.Fatalf("GET /debug/status: %v", err)
	}
	defer hr.Body.Close()
	html, _ := io.ReadAll(hr.Body)
	for _, want := range []string{"req-test", "relative", "#3 db/country", "1234"} {
		if !strings.Contains(string(html), want) {
			t.Errorf("status page missing %q", want)
		}
	}
}

// TestDebugInflightLive drives a real slow check and polls
// /debug/inflight until the solver's live snapshot shows work in
// progress — the end-to-end guarantee behind the smoke test.
func TestDebugInflightLive(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive live poll; skipped under -short (covered deterministically by TestDebugInflight and end to end by tools/servesmoke)")
	}
	_, ts := newTestServer(t, Config{})
	// Fig3Regular(8) solves for on the order of a second — long enough
	// that the poll loop below reliably sees a live snapshot.
	in := experiments.Fig3Regular(rand.New(rand.NewSource(7)), 8)

	done := make(chan struct{})
	go func() {
		defer close(done)
		body, _ := json.Marshal(CheckRequest{
			DTD:         in.D.String(),
			Constraints: in.Set.String(),
			DeadlineMS:  4000,
			Options:     CheckOptions{SkipWitness: true},
		})
		resp, err := http.Post(ts.URL+"/check", "application/json", bytes.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	deadline := time.Now().Add(8 * time.Second)
	var last InflightResponse
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/debug/inflight")
		if err != nil {
			t.Fatalf("GET /debug/inflight: %v", err)
		}
		err = json.NewDecoder(resp.Body).Decode(&last)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(last.Inflight) > 0 && last.Inflight[0].Nodes > 0 && last.Inflight[0].Phase != "" {
			<-done
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no live snapshot with nonzero nodes before deadline; last = %+v", last)
}

// TestStatusPhaseSummary: the recent-checks ring reports per-phase
// spans for lint, prover, and ilp in /debug/checks.
func TestStatusPhaseSummary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Three requests, each lighting up one phase: a linted check (the
	// geography fixture is refuted by the lint prepass), a lint-skipped
	// check that must reach the ILP solver, and an explain whose
	// pipeline runs the saturation prover.
	if resp, out := postCheck(t, ts, CheckRequest{DTD: geoDTD, Constraints: geoConstraints}); resp.StatusCode != http.StatusOK {
		t.Fatalf("linted check: %d %s", resp.StatusCode, out)
	}
	if resp, out := postCheck(t, ts, CheckRequest{
		DTD: geoDTD, Constraints: geoConstraints,
		Options: CheckOptions{SkipLint: true},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("solver check: %d %s", resp.StatusCode, out)
	}
	if resp, out := postExplain(t, ts, CheckRequest{
		DTD: geoDTD, Constraints: geoConstraints,
		Options: CheckOptions{SkipLint: true},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: %d %s", resp.StatusCode, out)
	}

	jr, err := http.Get(ts.URL + "/debug/checks")
	if err != nil {
		t.Fatalf("GET /debug/checks: %v", err)
	}
	defer jr.Body.Close()
	var st Status
	if err := json.NewDecoder(jr.Body).Decode(&st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(st.Recent) != 3 {
		t.Fatalf("recent rows = %d, want 3", len(st.Recent))
	}
	// Recent is newest first: explain, solver check, linted check.
	if ps := st.Recent[0].PhaseSummary; ps.ProverUS <= 0 {
		t.Errorf("explain phase summary = %+v, want nonzero prover", ps)
	}
	if ps := st.Recent[1].PhaseSummary; ps.ILPUS <= 0 {
		t.Errorf("solver-check phase summary = %+v, want nonzero ilp", ps)
	}
	if ps := st.Recent[2].PhaseSummary; ps.LintUS <= 0 || ps.ILPUS != 0 {
		t.Errorf("linted-check phase summary = %+v, want nonzero lint, zero ilp", ps)
	}
}

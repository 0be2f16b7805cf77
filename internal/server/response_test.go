package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	xmlspec "repro"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// decodeError decodes an ErrorResponse body, failing the test on any
// other shape.
func decodeError(t *testing.T, body []byte) ErrorResponse {
	t.Helper()
	var er ErrorResponse
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&er); err != nil {
		t.Fatalf("decode ErrorResponse %q: %v", body, err)
	}
	return er
}

// TestResponsesAreCompactWithLength requires every spec-route answer —
// verdicts and errors — to be one line of compact JSON, sent whole
// with a Content-Length rather than chunked.
func TestResponsesAreCompactWithLength(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	lib := CheckRequest{DTD: libraryDTD, Constraints: libraryConstraints}
	for _, tc := range []struct {
		path   string
		req    CheckRequest
		status int
	}{
		{"/check", lib, http.StatusOK},
		{"/explain", CheckRequest{DTD: geoDTD, Constraints: geoConstraints}, http.StatusOK},
		{"/check", CheckRequest{DTD: "<!ELEMENT", Constraints: ""}, http.StatusBadRequest},
	} {
		resp, body := postSpec(t, ts, tc.path, tc.req)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d: %s", tc.path, resp.StatusCode, tc.status, body)
		}
		if len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: transfer encoding %v, want a plain Content-Length body", tc.path, resp.TransferEncoding)
		}
		if resp.ContentLength != int64(len(body)) {
			t.Errorf("%s: Content-Length %d, body %d bytes", tc.path, resp.ContentLength, len(body))
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", tc.path, ct)
		}
		if !bytes.HasSuffix(body, []byte("\n")) || bytes.Count(body, []byte("\n")) != 1 {
			t.Errorf("%s: body is not one newline-terminated line: %q", tc.path, body)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, body); err != nil {
			t.Fatalf("%s: body is not JSON: %v", tc.path, err)
		}
		if compact.String() != strings.TrimSuffix(string(body), "\n") {
			t.Errorf("%s: body is not compact JSON: %s", tc.path, body)
		}
	}
}

// TestWriteJSONMarshalFailure pins the encode-failure path: a value
// that cannot be marshaled answers a 500 with a decodable internal
// ErrorResponse carrying the request's IDs and a correct
// Content-Length, never a truncated 200.
func TestWriteJSONMarshalFailure(t *testing.T) {
	s := NewServer(Config{Logger: quietLogger()})
	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	rr := httptest.NewRecorder()
	rr.Header().Set("X-Request-Id", "0000002a")
	rr.Header().Set("traceparent", "00-"+tid+"-00f067aa0ba902b7-01")
	s.writeJSON(rr, http.StatusOK, map[string]float64{"nan": math.NaN()})
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", rr.Code, rr.Body)
	}
	body := rr.Body.Bytes()
	if cl := rr.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Errorf("Content-Length %q, body %d bytes", cl, len(body))
	}
	er := decodeError(t, body)
	if er.Kind != "internal" || er.RequestID != "0000002a" || er.TraceID != tid || er.Error == "" {
		t.Errorf("error response %+v, want kind internal with the request's IDs", er)
	}
	var exp strings.Builder
	if err := s.reg.WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	parsed, err := telemetry.ParseExposition(exp.String())
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := parsed.Sample("xmlconsist_server_errors_internal_total"); !ok || got.Value != 1 {
		t.Errorf("server.errors.internal = %+v (present %v), want 1", got, ok)
	}
}

// TestRequestBodyLimit pins MaxRequestBytes on both spec routes: a
// valid body of exactly the limit is decided, one byte more is a 413
// parse error. The default limit (8 MiB) is exercised the same way.
func TestRequestBodyLimit(t *testing.T) {
	spec, err := json.Marshal(CheckRequest{DTD: libraryDTD, Constraints: libraryConstraints})
	if err != nil {
		t.Fatal(err)
	}
	// padded is the spec request followed by JSON whitespace up to n
	// bytes.
	padded := func(n int64) []byte {
		return append(append([]byte(nil), spec...), bytes.Repeat([]byte(" "), int(n)-len(spec))...)
	}
	for _, limit := range []int64{4096, 0} {
		s := NewServer(Config{Logger: quietLogger(), MaxRequestBytes: limit})
		h := s.Handler()
		max := s.cfg.MaxRequestBytes
		if limit == 0 && max != 8<<20 {
			t.Fatalf("default MaxRequestBytes = %d, want 8 MiB", max)
		}
		for _, path := range []string{"/check", "/explain"} {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(padded(max))))
			if rr.Code != http.StatusOK || verdictOf(rr.Body.Bytes()) != "consistent" {
				t.Errorf("%s, %d-byte body at the %d-byte limit: status %d: %s", path, max, max, rr.Code, rr.Body)
			}
			rr = httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(padded(max+1))))
			if rr.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s, %d-byte body over the %d-byte limit: status %d, want 413: %s", path, max+1, max, rr.Code, rr.Body)
			}
			if er := decodeError(t, rr.Body.Bytes()); er.Kind != "parse" {
				t.Errorf("%s: over-limit error kind %q, want parse", path, er.Kind)
			}
		}
	}
}

// TestRequestBodyDecodedLikeUnmarshal pins how a spec route judges its
// body: a body over the limit is a 413 whatever it holds, and anything
// but white space after the JSON value is a 400 parse error, as
// json.Unmarshal rejects it.
func TestRequestBodyDecodedLikeUnmarshal(t *testing.T) {
	spec, err := json.Marshal(CheckRequest{DTD: libraryDTD, Constraints: libraryConstraints})
	if err != nil {
		t.Fatal(err)
	}
	const limit = 4096
	h := NewServer(Config{Logger: quietLogger(), MaxRequestBytes: limit}).Handler()
	over := func(prefix string) []byte {
		return append([]byte(prefix), bytes.Repeat([]byte("x"), limit+1-len(prefix))...)
	}
	for _, tc := range []struct {
		name   string
		body   []byte
		status int
		msg    string
	}{
		{"valid then newline", append(append([]byte(nil), spec...), '\n'), http.StatusOK, ""},
		{"over limit, garbage", over(""), http.StatusRequestEntityTooLarge, "exceeds"},
		{"over limit, valid then garbage", over(string(spec)), http.StatusRequestEntityTooLarge, "exceeds"},
		{"trailing value", append(append([]byte(nil), spec...), spec...), http.StatusBadRequest, "after top-level value"},
		{"trailing garbage", append(append([]byte(nil), spec...), " x"...), http.StatusBadRequest, "invalid character 'x' after top-level value"},
		{"empty", nil, http.StatusBadRequest, "unexpected end of JSON input"},
		{"truncated", spec[:len(spec)/2], http.StatusBadRequest, "unexpected end of JSON input"},
		{"not an object", []byte(`[1]`), http.StatusBadRequest, "decoding request"},
	} {
		for _, path := range []string{"/check", "/explain"} {
			if want := json.Unmarshal(tc.body, new(CheckRequest)); tc.status != http.StatusRequestEntityTooLarge && (want == nil) != (tc.status == http.StatusOK) {
				t.Fatalf("%s: json.Unmarshal error %v disagrees with want status %d", tc.name, want, tc.status)
			}
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(tc.body)))
			if rr.Code != tc.status {
				t.Fatalf("%s %s: status %d, want %d: %s", path, tc.name, rr.Code, tc.status, rr.Body)
			}
			if tc.status == http.StatusOK {
				continue
			}
			if er := decodeError(t, rr.Body.Bytes()); er.Kind != "parse" || !strings.Contains(er.Error, tc.msg) {
				t.Errorf("%s %s: error %+v, want kind parse containing %q", path, tc.name, er, tc.msg)
			}
		}
	}
}

// maxServeCheckAllocs pins the allocations of one /check miss of the
// library spec through the full handler — middleware, decode, parse,
// decision, witness, certificate, every sink, and the response write —
// with a quiet logger. `make gates` runs it without the race detector,
// whose instrumentation shifts the count.
const maxServeCheckAllocs = 297

func TestServeCheckAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	h := NewServer(Config{Logger: quietLogger()}).Handler()
	// Every run renames the spec, so its digest is new and the verdict
	// cache never hits. The bodies are marshaled up front.
	const warm, runs = 300, 200
	bodies := make([][]byte, warm+runs+1)
	for i := range bodies {
		b, err := json.Marshal(librarySpec(i))
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}
	next := 0
	serve := func() {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/check", bytes.NewReader(bodies[next])))
		next++
		if rr.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rr.Code, rr.Body)
		}
	}
	// Warm the registry's series and let the audit log's hot-digest
	// table reach its steady trim cycle before counting.
	for next < warm {
		serve()
	}
	n := testing.AllocsPerRun(runs, serve)
	if m := cacheMetrics(t, h); m["hits"] != 0 || m["misses"] != float64(next) {
		t.Fatalf("cache %v after %d requests: every run must miss", m, next)
	}
	t.Logf("library /check miss through Handler: %.0f allocs", n)
	if n > maxServeCheckAllocs {
		t.Errorf("library /check miss allocates %.0f times, want ≤ %d", n, maxServeCheckAllocs)
	}
}

// hitSpec is the spec of the verified-hit pins: a Figure 3 unary
// instance with n=6, one family of the replayed hard-instance workload.
func hitSpec(t testing.TB) []byte {
	in := experiments.Fig3Unary(rand.New(rand.NewSource(7)), 6)
	body, err := json.Marshal(CheckRequest{DTD: in.D.String(), Constraints: in.Set.String()})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// warmHit serves body until the verdict cache holds its verdict and
// answers it with a verified hit, and returns the func that serves one
// more request of it.
func warmHit(t testing.TB, h http.Handler, body []byte) func() {
	serve := func() {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/check", bytes.NewReader(body)))
		if rr.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rr.Code, rr.Body)
		}
	}
	// Two misses admit the verdict; the rest warm the registry's series
	// and the audit log's hot-digest table.
	for i := 0; i < 100; i++ {
		serve()
	}
	return serve
}

// maxServeCheckHitAllocs pins the allocations of one verified /check
// hit through the full handler: middleware, body decode, parse, digest,
// the certificate decoded from the entry's bytes and re-proved, every
// sink, and the write of the stored bytes. Decoding the body from the
// limited reader, the slab-allocating parsers and serving the stored
// bytes took it from 2753.
const maxServeCheckHitAllocs = 295

func TestServeCheckHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	h := NewServer(Config{Logger: quietLogger()}).Handler()
	serve := warmHit(t, h, hitSpec(t))
	const runs = 100
	n := testing.AllocsPerRun(runs, serve)
	// AllocsPerRun serves once more to warm up.
	if m := cacheMetrics(t, h); m["misses"] != 2 || m["hits"] != 100-2+runs+1 || m["verify_failures"] != 0 {
		t.Fatalf("cache %v: want two misses, then verified hits only", m)
	}
	t.Logf("fig3 unary n=6 /check verified hit through Handler: %.0f allocs", n)
	if n > maxServeCheckHitAllocs {
		t.Errorf("verified /check hit allocates %.0f times, want ≤ %d", n, maxServeCheckHitAllocs)
	}
}

// BenchmarkServeCheckHit serves one verified /check hit of a Figure 3
// unary n=6 spec through the full handler.
func BenchmarkServeCheckHit(b *testing.B) {
	h := NewServer(Config{Logger: quietLogger()}).Handler()
	serve := warmHit(b, h, hitSpec(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// TestServeMarshalFailureReachesSinks: when a spec route's response
// cannot be marshaled, the audit log, the flight ring and the SLO
// window record the same 500 internal the client gets.
func TestServeMarshalFailureReachesSinks(t *testing.T) {
	s := NewServer(Config{Logger: quietLogger()})
	nanOp := checkOp
	nanOp.run = func(ctx context.Context, s *Server, spec *xmlspec.Spec, opts *xmlspec.Options, rq *request) (func() any, error) {
		if _, err := checkOp.run(ctx, s, spec, opts, rq); err != nil {
			return nil, err
		}
		return func() any { return map[string]float64{"nan": math.NaN()} }, nil
	}
	h := s.middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { s.serve(w, r, nanOp) }))
	body, err := json.Marshal(CheckRequest{DTD: libraryDTD, Constraints: libraryConstraints})
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/check", bytes.NewReader(body)))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", rr.Code, rr.Body)
	}
	er := decodeError(t, rr.Body.Bytes())
	if er.Kind != "internal" || !strings.Contains(er.Error, "encoding response") {
		t.Errorf("error response %+v, want kind internal naming the encode failure", er)
	}
	if ev := s.audit.Recent(1); len(ev) != 1 || ev[0].Status != http.StatusInternalServerError || ev[0].Abort != "internal" {
		t.Errorf("audit events %+v, want one 500 internal", ev)
	}
	if fe := s.flight.Recent(1); len(fe) != 1 || fe[0].Status != http.StatusInternalServerError || fe[0].Abort != "internal" {
		t.Errorf("flight entries %+v, want one 500 internal", fe)
	}
	if ws := s.rolling.Window(time.Minute); ws.Count != 1 || ws.Errors != 1 {
		t.Errorf("1m window = %+v, want one failed check", ws)
	}
}

// TestRequestDeclaredLengthOverLimit sends short bodies that declare a
// Content-Length over the limit, up to the largest net/http accepts:
// each is a 413, answered without reading the body.
func TestRequestDeclaredLengthOverLimit(t *testing.T) {
	const limit = 4096
	h := NewServer(Config{Logger: quietLogger(), MaxRequestBytes: limit}).Handler()
	for _, declared := range []int64{limit + 1, 8 << 20, math.MaxInt64} {
		for _, path := range []string{"/check", "/explain"} {
			req := httptest.NewRequest(http.MethodPost, path, strings.NewReader("{}"))
			req.ContentLength = declared
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, req)
			if rr.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s, Content-Length %d: status %d, want 413: %s", path, declared, rr.Code, rr.Body)
			}
		}
	}
}

// TestReadLimited reads bodies around the limit with the length known,
// unknown (-1, a chunked body), understated and overstated up to the
// largest net/http accepts: each reads whole up to the limit, and a
// longer one stops at the limit. A declared length sets aside at most
// maxBodyPrealloc bytes before the body arrives.
func TestReadLimited(t *testing.T) {
	const limit = 1500
	for _, n := range []int{0, 1, 511, 512, 513, 1024, limit - 1, limit, limit + 1, 3 * limit} {
		body := bytes.Repeat([]byte("x"), n)
		for _, size := range []int64{int64(n), -1, int64(n / 2), math.MaxInt64} {
			got, err := readLimited(iotest.OneByteReader(bytes.NewReader(body)), limit, size)
			if want := body[:min(n, limit)]; err != nil || !bytes.Equal(got, want) {
				t.Fatalf("n=%d size=%d: read %d bytes, %v; want %d", n, size, len(got), err, len(want))
			}
		}
	}
	for _, size := range []int64{8 << 20, math.MaxInt64} {
		got, err := readLimited(strings.NewReader("{}"), 8<<20+1, size)
		if err != nil || string(got) != "{}" || cap(got) > maxBodyPrealloc {
			t.Fatalf("declared %d: read %q (cap %d), %v; want {} in at most %d bytes", size, got, cap(got), err, maxBodyPrealloc)
		}
	}
	if _, err := readLimited(iotest.ErrReader(io.ErrUnexpectedEOF), limit, -1); err != io.ErrUnexpectedEOF {
		t.Fatalf("read error %v, want %v", err, io.ErrUnexpectedEOF)
	}
}

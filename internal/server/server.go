// Package server exposes the consistency checker over HTTP with live
// telemetry, using only the standard library. Endpoints:
//
//	POST /check         specification in, verdict + certificate + stats out
//	POST /explain       same request shape; verdict + minimal unsat core +
//	                    rule derivation + repair hints out
//	GET  /metrics       Prometheus text exposition of the process registry
//	GET  /healthz       liveness probe
//	GET  /debug/status  human-readable status page (HTML)
//	GET  /debug/checks  the status page's data as JSON
//	GET  /debug/inflight live solver progress of running checks (JSON)
//	GET  /debug/pprof   optional runtime profiles (Config.Pprof)
//
// Every request runs under middleware that assigns a request ID,
// writes a structured log line, recovers panics into 500s, and feeds
// the latency histograms. /check and /explain are one pipeline (serve),
// parameterized by a small op value holding only what differs between
// them: the root span, the latency histogram and counter, the audit op,
// and the decision run.
// Checks execute synchronously on the request goroutine with a
// deadline-bounded context threaded into the decision procedures, so a
// client disconnect or timeout aborts the worst-case exponential
// search promptly and leaks no goroutines.
//
// Every JSON answer — verdicts, explanations, errors, and the /debug
// JSON pages — is one line of compact JSON, marshaled whole before the
// status goes out and sent in a single write with its Content-Length.
// A value that fails to marshal answers a 500 kind "internal"
// ErrorResponse instead of a truncated 200; the spec routes marshal
// before the sinks record the request, so they record that 500 too.
//
// /check answers repeated specs from a verdict cache. It is keyed by
// the spec digest and the decision options (max solver nodes, max
// value, skip/minimize witness, and skip lint). A hit decodes the
// certificate from the entry's stored bytes and re-proves the decoded
// certificate with VerifyCertificate against the request's own parsed
// spec, under a server.cache span with a verify child; the digest is a
// 64-bit hash and could collide, so a certificate that fails is
// counted, evicted, and the spec decided in full. A hit that verifies
// serves the stored bytes as they are, so the certificate a client
// receives is byte for byte the one that was verified, and the hit's
// body equals its miss's apart from the request and trace IDs and the
// elapsed time. A verdict is admitted only when its key's fingerprint
// is already in a bounded recently-seen set, and entries are evicted
// least recently used first under a fixed byte budget, so traffic that
// never repeats a spec never fills the cache. Entries hold the
// certificate as the compact JSON its miss marshaled once for its own
// response, never the live certificate or the cost rows. Requests
// asking for attribution or skipping the certificate, and /explain,
// never read or write it; Unknown and aborted results are never
// stored. A hit returns the stored Stats of the solve that produced
// it, and its audit event carries no scope costs.
//
// Spec-route bodies are read once, up to one byte past
// MaxRequestBytes, into a buffer sized from the request's
// Content-Length (at most 64 KiB up front), and decoded with
// json.Unmarshal; a body over MaxRequestBytes is a 413 whatever it
// holds, and a Content-Length over it is a 413 before any body byte is
// read.
//
// Every request also runs under W3C trace context: the middleware
// parses an inbound traceparent header (or starts a fresh trace),
// echoes it on the response, and the trace ID flows into the span
// tree, the audit event, the latency-histogram exemplars, and the
// response bodies, so one identifier joins every artifact a request
// leaves behind.
//
// The pipeline builds one record per request (IDs, digest, raw spec,
// recorder, publisher, elapsed time, status, abort, verdict), and a
// single finish step feeds it to every sink: the registry and its
// latency exemplars, the Chrome trace file in Config.TraceDir, the
// audit log (request ID, trace ID, spec digest, verdict, phases), and
// the flight recorder's bounded ring — which, on a trigger (slow
// threshold, 5xx/panic, abort, sampled inconsistent verdict), dumps a
// rate-limited correlated bundle into Config.QuarantineDir so
// anomalous checks can be replayed offline. The rolling 1m/5m/1h
// windows that drive the rate/latency/burn-rate gauges are fed by the
// middleware once the response is written, so they see the latency
// the client saw: body read, decode, parse, decision, audit, and
// response write.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	xmlspec "repro"
	"repro/internal/audit"
	"repro/internal/certificate"
	"repro/internal/flight"
	"repro/internal/introspect"
	"repro/internal/obs"
	"repro/internal/prover"
	"repro/internal/telemetry"
)

// Config parameterizes a Server. The zero value serves with no
// deadline, no in-flight cap, no trace directory, and a default
// logger.
type Config struct {
	// Registry receives per-request measurements; NewServer creates
	// one when nil.
	Registry *telemetry.Registry
	// Deadline bounds each check (zero: requests run until the client
	// gives up). Per-request deadline_ms values are clamped to it.
	Deadline time.Duration
	// MaxInflight caps concurrently running checks; excess requests
	// are rejected with 429 (zero: unlimited).
	MaxInflight int
	// TraceDir, when set, stores a Chrome trace-event file per /check
	// or /explain request (check-<request-id>.json for both), loadable
	// in Perfetto.
	TraceDir string
	// Logger receives one structured line per request (nil: slog
	// text handler on stderr).
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof.
	Pprof bool
	// MaxRequestBytes bounds the /check and /explain request bodies
	// (zero: 8 MiB).
	MaxRequestBytes int64
	// Parallelism is ignored: scope problems are solved sequentially.
	//
	// Deprecated: kept only so existing callers compile.
	Parallelism int
	// Audit receives one event per check. When nil, NewServer creates
	// an in-memory log (ring and hot-digest table only, no file) so the
	// status page always has data; the caller owns a file-backed log's
	// lifecycle, including Close.
	Audit *audit.Log
	// SlowThreshold marks checks slower than it as slow: they bump the
	// slow counter and trip the flight recorder's slow trigger (zero:
	// no slow trigger). A check's time runs from the middleware's entry,
	// body upload included, as the client sees it.
	SlowThreshold time.Duration
	// QuarantineDir is where flight bundles land, as a
	// <trigger>-<trace-id>.json correlated bundle plus a matching
	// .spec dump. Empty disables dumping (the in-memory flight ring
	// still records).
	QuarantineDir string
	// SlowCaptureInterval rate-limits flight dumps across all
	// triggers: at most one bundle per interval (zero: one per
	// minute).
	SlowCaptureInterval time.Duration
	// FlightSampleInconsistent dumps every Nth inconsistent verdict as
	// a flight bundle (zero: off).
	FlightSampleInconsistent int
	// FlightMaxBundleBytes caps each flight bundle's .json size (zero:
	// 4 MiB).
	FlightMaxBundleBytes int64
	// SLOTarget is the latency target of the serving SLO; checks
	// slower than it burn error budget. Zero disables the SLO gauges.
	SLOTarget time.Duration
	// SLOObjective is the fraction of checks that must finish under
	// SLOTarget without failing (zero: 0.99).
	SLOObjective float64
}

// Server handles the HTTP surface. Create with NewServer.
type Server struct {
	cfg      Config
	reg      *telemetry.Registry
	log      *slog.Logger
	audit    *audit.Log
	rolling  *telemetry.Rolling
	start    time.Time
	inflight atomic.Int64
	reqSeq   atomic.Uint64

	// running holds the records of the requests currently executing,
	// for the status pages' in-flight tables.
	runningMu sync.Mutex
	running   map[string]*request

	// flight is the anomaly flight recorder: ring of recent requests
	// plus the trigger-driven quarantine dumper.
	flight *flight.Recorder

	// cache holds verified-on-hit /check verdicts by spec digest and
	// decision options.
	cache *verdictCache
}

// NewServer validates the config and builds a server.
func NewServer(cfg Config) *Server {
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry("")
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	if cfg.MaxRequestBytes == 0 {
		cfg.MaxRequestBytes = 8 << 20
	}
	if cfg.Audit == nil {
		// Cannot fail: an empty path opens no file.
		cfg.Audit, _ = audit.New(audit.Options{})
	}
	if cfg.SLOObjective == 0 {
		cfg.SLOObjective = 0.99
	}
	if cfg.SlowCaptureInterval == 0 {
		cfg.SlowCaptureInterval = time.Minute
	}
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Registry,
		log:     cfg.Logger,
		audit:   cfg.Audit,
		rolling: telemetry.NewRolling(cfg.SLOTarget.Microseconds()),
		start:   time.Now(),
		running: map[string]*request{},
		cache:   newVerdictCache(cacheBudget),
		flight: flight.New(flight.Options{
			Dir:                cfg.QuarantineDir,
			SlowThreshold:      cfg.SlowThreshold,
			Interval:           cfg.SlowCaptureInterval,
			SampleInconsistent: cfg.FlightSampleInconsistent,
			MaxBundleBytes:     cfg.FlightMaxBundleBytes,
			Logger:             cfg.Logger,
		}),
	}
	s.reg.RegisterGauge("server_inflight_checks",
		"Checks currently executing.",
		func() float64 { return float64(s.inflight.Load()) })
	s.reg.RegisterGauge("server_audit_events",
		"Audit events recorded since start.",
		func() float64 { return float64(s.audit.Events()) })
	s.reg.RegisterGauge("server_uptime_seconds",
		"Seconds since the server was constructed.",
		func() float64 { return time.Since(s.start).Seconds() })
	telemetry.RegisterRolling(s.reg, s.rolling)
	if cfg.SLOTarget > 0 {
		telemetry.RegisterSLO(s.reg, s.rolling, cfg.SLOTarget, cfg.SLOObjective)
	}
	s.reg.Help("server.requests", "HTTP requests served, any endpoint.")
	s.reg.Help(checkCount, "Consistency checks completed with a verdict.")
	s.reg.Help(explainCount, "Explanations (/explain) completed with a verdict.")
	s.reg.Help(explainLatency, "Explanation latency in microseconds (check + core minimization).")
	s.reg.Help("server.panics", "Handler panics recovered into 500 responses.")
	s.reg.Help("server.request_us", "End-to-end HTTP request latency in microseconds.")
	s.reg.Help(checkLatency, "Consistency-check latency in microseconds (verdict-bearing requests).")
	s.reg.Help("server.slow_captures", "Flight bundles dumped to the quarantine directory (trace+spec pairs, any trigger).")
	s.reg.Help("server.slow_checks", "Checks that exceeded the slow threshold (captured or not).")
	s.reg.Help(cacheHits, "Checks answered from the verdict cache after their stored certificate re-verified.")
	s.reg.Help(cacheMisses, "Cacheable checks decided in full (no entry, or its certificate failed verification).")
	s.reg.Help(cacheAdmits, "Verdicts stored in the cache on their key's second sighting.")
	s.reg.Help(cacheEvictions, "Verdict-cache entries evicted to keep the byte budget.")
	s.reg.Help(cacheVerifyFailures, "Cached certificates that failed re-verification and were evicted.")
	// The cache counters read 0 from the start rather than appearing at
	// their first increment.
	for _, name := range []string{cacheHits, cacheMisses, cacheAdmits, cacheEvictions, cacheVerifyFailures} {
		s.reg.Add(name, 0)
	}
	s.reg.RegisterGauge("server_cache_entries",
		"Verdicts held in the /check verdict cache.",
		func() float64 { n, _ := s.cache.stats(); return float64(n) })
	s.reg.RegisterGauge("server_cache_bytes",
		"Approximate bytes held by the /check verdict cache.",
		func() float64 { _, b := s.cache.stats(); return float64(b) })
	s.reg.RegisterGauge("server_flight_triggered",
		"Requests that tripped a flight-recorder trigger.",
		func() float64 { t, _, _ := s.flight.Stats(); return float64(t) })
	s.reg.RegisterGauge("server_flight_suppressed",
		"Flight dumps suppressed by the shared rate limiter.",
		func() float64 { _, _, sup := s.flight.Stats(); return float64(sup) })
	return s
}

// Handler returns the full route table wrapped in the request
// middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /check", func(w http.ResponseWriter, r *http.Request) { s.serve(w, r, checkOp) })
	mux.HandleFunc("POST /explain", func(w http.ResponseWriter, r *http.Request) { s.serve(w, r, explainOp) })
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /debug/status", s.handleStatus)
	mux.HandleFunc("GET /debug/checks", s.handleChecks)
	mux.HandleFunc("GET /debug/inflight", s.handleInflight)
	if s.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.middleware(mux)
}

// CheckRequest is the /check request body.
type CheckRequest struct {
	// DTD is the specification's DTD in surface syntax.
	DTD string `json:"dtd"`
	// Constraints is the constraint set, one constraint per line.
	Constraints string `json:"constraints"`
	// DeadlineMS optionally tightens this request's deadline in
	// milliseconds; it never loosens the server-wide one.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Options tunes the decision procedures.
	Options CheckOptions `json:"options,omitempty"`
}

// CheckOptions is the JSON projection of xmlspec.Options.
type CheckOptions struct {
	MaxSolverNodes  int   `json:"max_solver_nodes,omitempty"`
	MaxValue        int64 `json:"max_value,omitempty"`
	SkipWitness     bool  `json:"skip_witness,omitempty"`
	MinimizeWitness bool  `json:"minimize_witness,omitempty"`
	SkipLint        bool  `json:"skip_lint,omitempty"`
	SkipCertificate bool  `json:"skip_certificate,omitempty"`
	// Attribution asks for the per-scope cost rows in the response.
	// The audit trail gets a check's (time-only) rows either way: both
	// are derived from the request's spans.
	Attribution bool `json:"attribution,omitempty"`
}

// CheckResponse is the /check response body on success.
type CheckResponse struct {
	RequestID string `json:"request_id"`
	// TraceID is the W3C trace ID this request ran under (also echoed
	// in the traceparent response header): the join key for audit
	// events, metric exemplars, and flight bundles.
	TraceID string `json:"trace_id,omitempty"`
	// SpecDigest is the canonical digest of the checked specification
	// (internal/digest) — the key joining this response to audit
	// events, traces, certificates, and the status page.
	SpecDigest string `json:"spec_digest"`
	Verdict    string `json:"verdict"`
	Class      string `json:"class,omitempty"`
	Method     string `json:"method,omitempty"`
	Witness    string `json:"witness,omitempty"`
	Diagnosis  string `json:"diagnosis,omitempty"`
	// Certificate is the verdict's certificate (certificate.Certificate)
	// as compact JSON. A verdict-cache hit carries the stored bytes its
	// verification decoded, unchanged.
	Certificate json.RawMessage `json:"certificate,omitempty"`
	Stats       xmlspec.Stats   `json:"stats"`
	// Attribution is the per-scope cost rows (certificate's sibling
	// report), present when the request set options.attribution.
	Attribution []xmlspec.ScopeCost `json:"attribution,omitempty"`
	ElapsedUS   int64               `json:"elapsed_us"`
}

// ExplainResponse is the /explain response body on success. The request
// shape is CheckRequest — /explain accepts exactly what /check accepts —
// and the core, derivation and hint fields mirror xmlspec.Explanation,
// with constraint references as Σ indices in the prover's canonical
// order (keys first, then inclusions).
type ExplainResponse struct {
	RequestID  string `json:"request_id"`
	TraceID    string `json:"trace_id,omitempty"`
	SpecDigest string `json:"spec_digest"`
	Verdict    string `json:"verdict"`
	Method     string `json:"method,omitempty"`
	// Core lists the Σ indices of a minimal conflicting subset;
	// CoreConstraints renders them, parallel to Core.
	Core            []int    `json:"core,omitempty"`
	CoreConstraints []string `json:"core_constraints,omitempty"`
	// Derivation is the prover's replayable rule derivation of the
	// contradiction, when the sound rule set reaches it.
	Derivation []prover.Step `json:"derivation,omitempty"`
	// Hints ranks drop/weaken repair candidates by cross-core membership.
	Hints []xmlspec.RepairHint `json:"hints,omitempty"`
	// Cores and Checks describe the minimization effort: distinct unsat
	// cores enumerated, and decisions made by the full procedure — the
	// whole spec plus each distinct constraint subset the prover did
	// not refute (consistency.Explanation.Checks).
	Cores       int                      `json:"cores"`
	Checks      int                      `json:"checks"`
	Certificate *certificate.Certificate `json:"certificate,omitempty"`
	ElapsedUS   int64                    `json:"elapsed_us"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	RequestID string `json:"request_id"`
	TraceID   string `json:"trace_id,omitempty"`
	Error     string `json:"error"`
	// Kind distinguishes machine-readable failure classes:
	// "parse", "overload", "deadline", "canceled", "internal".
	Kind string `json:"kind"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"inflight\":%d}\n", s.inflight.Load())
}

// handleMetrics serves the registry under content negotiation: the
// OpenMetrics exposition (with trace-ID exemplars on the histogram
// buckets) when the scraper asks for it, the Prometheus text format
// otherwise.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	contentType, openMetrics := telemetry.NegotiateExposition(r.Header.Get("Accept"))
	w.Header().Set("Content-Type", contentType)
	var err error
	if openMetrics {
		err = s.reg.WriteOpenMetrics(w)
	} else {
		err = s.reg.WritePrometheus(w)
	}
	if err != nil {
		s.log.Error("metrics write failed", "err", err)
	}
}

// admit applies the in-flight cap, answering 429 itself when the server
// is at capacity. The slot is claimed before the cap is compared, so
// concurrent requests can never jointly overshoot it; a rejected
// request gives its slot straight back. The caller must pair a
// successful admit with the deferred decrement.
func (s *Server) admit(w http.ResponseWriter, id, tid string) bool {
	n := s.inflight.Add(1)
	if max := s.cfg.MaxInflight; max > 0 && n > int64(max) {
		s.inflight.Add(-1)
		s.reg.Add("server.rejects.overload", 1)
		s.writeError(w, id, tid, http.StatusTooManyRequests, "overload",
			fmt.Sprintf("at capacity (%d checks in flight)", max))
		return false
	}
	return true
}

// readSpecRequest reads the request body both spec routes share, up to
// one byte past the size limit, decodes it and parses the
// specification. On failure it answers the request itself and reports
// ok=false. A body over the limit is a 413 whatever it holds, and so is
// one that declares a length over the limit, which is read no further.
func (s *Server) readSpecRequest(w http.ResponseWriter, r *http.Request, rq *request) (*xmlspec.Spec, bool) {
	var body []byte
	var err error
	if r.ContentLength <= s.cfg.MaxRequestBytes {
		body, err = readLimited(r.Body, s.cfg.MaxRequestBytes+1, r.ContentLength)
	}
	switch {
	case r.ContentLength > s.cfg.MaxRequestBytes:
		s.writeError(w, rq.RequestID, rq.TraceID, http.StatusRequestEntityTooLarge, "parse",
			fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxRequestBytes))
		return nil, false
	case err != nil:
		s.writeError(w, rq.RequestID, rq.TraceID, http.StatusBadRequest, "parse", "reading body: "+err.Error())
		return nil, false
	case int64(len(body)) > s.cfg.MaxRequestBytes:
		s.writeError(w, rq.RequestID, rq.TraceID, http.StatusRequestEntityTooLarge, "parse",
			fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxRequestBytes))
		return nil, false
	}
	if err := json.Unmarshal(body, &rq.req); err != nil {
		s.reg.Add("server.errors.parse", 1)
		s.writeError(w, rq.RequestID, rq.TraceID, http.StatusBadRequest, "parse", "decoding request: "+err.Error())
		return nil, false
	}
	spec, err := xmlspec.Parse(rq.req.DTD, rq.req.Constraints)
	if err != nil {
		s.reg.Add("server.errors.parse", 1)
		s.writeError(w, rq.RequestID, rq.TraceID, http.StatusBadRequest, "parse", err.Error())
		return nil, false
	}
	return spec, true
}

// readLimited reads r to its end, or to limit bytes when it is longer,
// into a buffer sized from the declared length size (negative when
// unknown), with one spare byte for the read that meets the end. At
// most maxBodyPrealloc bytes are set aside before any arrive; a longer
// body grows the buffer as it is read.
func readLimited(r io.Reader, limit, size int64) ([]byte, error) {
	n := int64(512)
	if size >= 0 {
		n = min(size, maxBodyPrealloc-1) + 1
	}
	buf := make([]byte, 0, min(n, limit))
	for int64(len(buf)) < limit {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 1)
		}
		m, err := r.Read(buf[len(buf):min(int64(cap(buf)), limit)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// maxBodyPrealloc bounds the buffer readLimited sizes from a declared
// length, so a request that declares a large body and sends it slowly,
// or never, holds no more than this.
const maxBodyPrealloc = 64 << 10

// Latency histogram and completion counter of each spec route.
const (
	checkLatency   = "server.check_us"
	checkCount     = "server.checks"
	explainLatency = "server.explain_us"
	explainCount   = "server.explains"
)

// op is what differs between the two spec routes; everything else in a
// request's life is the one pipeline in serve.
type op struct {
	// name is the route ("check", "explain"): the flight-recorder op and
	// the prefix of abort messages.
	name           string
	span           string
	latency, count string
	// auditOp is empty for checks, keeping existing logs stable.
	auditOp string
	// run decides the spec, stamps the verdict and certificate kind
	// into the record, and returns the func that renders the response
	// body once the record is complete.
	run func(ctx context.Context, s *Server, spec *xmlspec.Spec, opts *xmlspec.Options, rq *request) (respond func() any, err error)
}

var (
	checkOp = op{
		name: "check", span: "server.check", latency: checkLatency, count: checkCount,
		run: func(ctx context.Context, s *Server, spec *xmlspec.Spec, opts *xmlspec.Options, rq *request) (func() any, error) {
			res, cert, err := s.decide(ctx, spec, opts, rq)
			if err != nil {
				return nil, err
			}
			rq.Verdict, rq.CertificateKind = res.Verdict.String(), res.Certificate.Kind()
			return func() any {
				return CheckResponse{
					RequestID:   rq.RequestID,
					TraceID:     rq.TraceID,
					SpecDigest:  rq.SpecDigest,
					Verdict:     rq.Verdict,
					Class:       res.Class,
					Method:      res.Method,
					Witness:     res.Witness,
					Diagnosis:   res.Diagnosis,
					Certificate: cert,
					Stats:       res.Stats,
					Attribution: res.Attribution,
					ElapsedUS:   rq.ElapsedUS,
				}
			}, nil
		},
	}
	// explainOp runs the full explanation pipeline — check, then
	// deletion-based core minimization with derivation extraction and
	// repair-hint ranking. Explanation re-decides many constraint
	// subsets, so it keeps its own latency histogram, counter, and
	// audit op.
	explainOp = op{
		name: "explain", span: "server.explain", latency: explainLatency, count: explainCount,
		auditOp: "explain",
		run: func(ctx context.Context, _ *Server, spec *xmlspec.Spec, opts *xmlspec.Options, rq *request) (func() any, error) {
			ex, err := spec.ExplainContext(ctx, opts)
			if err != nil {
				return nil, err
			}
			rq.Verdict, rq.CertificateKind = ex.Verdict.String(), ex.Certificate.Kind()
			return func() any {
				return ExplainResponse{
					RequestID:       rq.RequestID,
					TraceID:         rq.TraceID,
					SpecDigest:      rq.SpecDigest,
					Verdict:         rq.Verdict,
					Method:          ex.Method,
					Core:            ex.Core,
					CoreConstraints: ex.CoreConstraints,
					Derivation:      ex.Derivation,
					Hints:           ex.Hints,
					Cores:           ex.Cores,
					Checks:          ex.Checks,
					Certificate:     ex.Certificate,
					ElapsedUS:       rq.ElapsedUS,
				}
			}, nil
		},
	}
)

// request is the one record of a spec-route request. Its core is the
// audit event the request becomes (IDs, spec digest, verdict,
// certificate kind, status, abort, elapsed time, phases, scope costs);
// serve fills it in as the request progresses, the in-flight table
// holds it while the run executes, and finish hands it to every sink.
type request struct {
	audit.Event
	op op
	// req is the decoded body; its DTD and constraints are the raw
	// spec text of the flight recorder's .spec dump.
	req CheckRequest
	// entry is when the middleware took the request in and start when
	// the run began; latency, set by finish, is the time since entry —
	// the latency the client saw so far, body upload included — which
	// the slow-check accounting and the flight recorder judge.
	entry, start time.Time
	latency      time.Duration
	rec          *obs.Recorder
	// pub receives the solver's sampled progress snapshots, so
	// /debug/inflight can show where a long check is without ever
	// blocking the search.
	pub *introspect.Publisher
}

// serve is the pipeline behind both spec routes: admit, parse, register
// in flight, run the decision under the deadline with a per-request
// recorder, feed every sink, and answer.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, o op) {
	rq := &request{op: o, entry: entryTime(r.Context(), time.Now()), Event: audit.Event{
		RequestID: requestID(r.Context()), TraceID: traceID(r.Context()), Op: o.auditOp}}
	if !s.admit(w, rq.RequestID, rq.TraceID) {
		return
	}
	defer s.inflight.Add(-1)
	spec, ok := s.readSpecRequest(w, r, rq)
	if !ok {
		return
	}
	rq.SpecDigest = spec.Digest()
	rq.pub = introspect.NewPublisher()

	ctx, cancel := s.checkContext(r.Context(), rq.req.DeadlineMS)
	defer cancel()

	// The span tree becomes this request's trace file; the counters and
	// histograms aggregate into the registry.
	rq.rec = obs.New()
	rq.rec.SetTraceID(rq.TraceID)
	root := rq.rec.Start(o.span)
	root.SetString("request_id", rq.RequestID)
	root.SetString("trace_id", rq.TraceID)
	root.SetString("spec_digest", rq.SpecDigest)
	spec.SetObserver(rq.rec)

	opts := rq.req.Options.internal()
	opts.Progress = rq.pub
	opts.ProfileLabel = rq.SpecDigest

	rq.start = time.Now()
	defer s.track(rq)()
	respond, err := o.run(ctx, s, spec, opts, rq)
	elapsed := time.Since(rq.start)
	rq.ElapsedUS = elapsed.Microseconds()
	root.SetInt("elapsed_us", rq.ElapsedUS)
	rq.rec.Observe(o.latency, rq.ElapsedUS)
	rq.rec.Add(o.count, 1)
	if err == nil {
		rq.rec.Add("server.verdict."+rq.Verdict, 1)
	}
	root.End()

	// The body is marshaled before finish, so a response that cannot
	// be encoded is recorded by every sink as the 500 its client gets.
	var body []byte
	if err == nil {
		if body, err = json.Marshal(respond()); err != nil {
			err = fmt.Errorf("encoding response: %w", err)
		}
	}
	if err != nil {
		var msg string
		rq.Status, rq.Abort, msg = s.classifyAbort(o.name, err, elapsed)
		markSLO(r.Context(), true)
		s.finish(rq)
		s.writeError(w, rq.RequestID, rq.TraceID, rq.Status, rq.Abort, msg)
		return
	}
	rq.Status = http.StatusOK
	markSLO(r.Context(), false)
	s.finish(rq)
	s.writeBody(w, http.StatusOK, body)
}

// track registers rq in the in-flight table the status pages read; the
// returned func removes it.
func (s *Server) track(rq *request) func() {
	s.runningMu.Lock()
	s.running[rq.RequestID] = rq
	s.runningMu.Unlock()
	return func() {
		s.runningMu.Lock()
		delete(s.running, rq.RequestID)
		s.runningMu.Unlock()
	}
}

// classifyAbort maps a run's error to the HTTP status, the abort kind
// (also the error response's kind), and the client message, and counts
// it. name prefixes the abort messages.
func (s *Server) classifyAbort(name string, err error, elapsed time.Duration) (status int, kind, msg string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.reg.Add("server.aborts.deadline", 1)
		return http.StatusGatewayTimeout, "deadline", name + " aborted: deadline exceeded after " + elapsed.String()
	case errors.Is(err, context.Canceled):
		s.reg.Add("server.aborts.canceled", 1)
		// The client is usually gone; the status code is best-effort.
		return 499, "canceled", name + " aborted: request canceled"
	default:
		s.reg.Add("server.errors.internal", 1)
		return http.StatusInternalServerError, "internal", err.Error()
	}
}

// finish hands a finished request to every sink: the registry and its
// latency exemplar, the trace file, the audit log,
// and the flight recorder — the single capture path for slow, errored,
// aborted, and sampled inconsistent requests — plus the slow-check
// accounting. The span list is taken from the recorder once and feeds
// the audit phases, a decided check's scope costs, and the flight
// ring. The recorder's shared rate limiter and <trigger>-<trace_id>
// naming guarantee a request is captured at most once, whatever
// combination of triggers it trips.
// Sink failures are logged, never surfaced: they must not fail a
// request that finished.
func (s *Server) finish(rq *request) {
	s.reg.Absorb(rq.rec)
	s.reg.Exemplar(rq.op.latency, rq.ElapsedUS, rq.TraceID)
	s.writeTraceFile(rq.RequestID, rq.rec)
	spans := rq.rec.Spans()
	rq.Phases = auditPhases(spans)
	if rq.op.name == checkOp.name && rq.Verdict != "" {
		rq.ScopeCosts = auditScopeCosts(introspect.Rows(spans))
	}
	s.audit.Record(rq.Event)
	rq.latency = time.Since(rq.entry)
	if s.cfg.SlowThreshold > 0 && rq.latency >= s.cfg.SlowThreshold {
		s.reg.Add("server.slow_checks", 1)
		s.log.Warn("slow check",
			"request_id", rq.RequestID, "trace_id", rq.TraceID, "spec_digest", rq.SpecDigest,
			"elapsed", rq.latency, "threshold", s.cfg.SlowThreshold)
	}
	fr := rq.flightRequest()
	fr.Spans = spans
	if file := s.flight.Observe(fr); file != "" {
		s.reg.Add("server.slow_captures", 1)
		s.log.Warn("flight bundle dumped",
			"request_id", rq.RequestID, "trace_id", rq.TraceID, "bundle", file)
	}
}

// flightRequest is the record as the flight recorder observes it;
// finish adds the span list it has already taken. The middleware's
// panic path builds a partial record (no spec, recorder, publisher, or
// spans) and observes it the same way.
func (rq *request) flightRequest() flight.Request {
	return flight.Request{
		TraceID:     rq.TraceID,
		RequestID:   rq.RequestID,
		SpecDigest:  rq.SpecDigest,
		Op:          rq.op.name,
		DTD:         rq.req.DTD,
		Constraints: rq.req.Constraints,
		Status:      rq.Status,
		Abort:       rq.Abort,
		Verdict:     rq.Verdict,
		Elapsed:     rq.latency,
		Rec:         rq.rec,
		Progress:    rq.pub,
	}
}

// auditScopeCosts caps the cost rows stamped into an audit event. Rows
// come sorted by descending elapsed time, so the cap keeps the most
// expensive scopes and a pathological spec cannot bloat the log line.
func auditScopeCosts(rows []introspect.ScopeCost) []introspect.ScopeCost {
	const maxRows = 32
	if len(rows) > maxRows {
		rows = rows[:maxRows:maxRows]
	}
	return rows
}

// auditPhases turns the request's flattened span tree into audit
// phases, capped so a pathological trace cannot bloat the log line.
func auditPhases(spans []obs.SpanInfo) []audit.Phase {
	const maxPhases = 48
	if len(spans) > maxPhases {
		spans = spans[:maxPhases]
	}
	phases := make([]audit.Phase, len(spans))
	for i, sp := range spans {
		phases[i] = audit.Phase{Path: sp.Path, DurationUS: sp.DurationUS}
	}
	return phases
}

// checkContext derives the context a check runs under: the request
// context (canceled on client disconnect) bounded by the tighter of
// the server-wide and per-request deadlines. A deadline_ms too large
// for a time.Duration saturates rather than wrapping negative, so a
// request can only ever tighten the server's deadline.
func (s *Server) checkContext(ctx context.Context, deadlineMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.Deadline
	if deadlineMS > 0 {
		reqD := time.Duration(math.MaxInt64)
		if deadlineMS <= int64(reqD/time.Millisecond) {
			reqD = time.Duration(deadlineMS) * time.Millisecond
		}
		if d == 0 || reqD < d {
			d = reqD
		}
	}
	if d <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, d)
}

// internal converts the JSON options to facade options. serve then
// attaches the request's progress publisher and profile label.
func (o CheckOptions) internal() *xmlspec.Options {
	return &xmlspec.Options{
		MaxSolverNodes:  o.MaxSolverNodes,
		MaxValue:        o.MaxValue,
		SkipWitness:     o.SkipWitness,
		MinimizeWitness: o.MinimizeWitness,
		SkipLint:        o.SkipLint,
		SkipCertificate: o.SkipCertificate,
		Attribution:     o.Attribution,
	}
}

// writeTraceFile stores the request's span tree as a Chrome trace when
// a trace directory is configured. Failures are logged, not surfaced:
// tracing must never fail a check that succeeded.
func (s *Server) writeTraceFile(id string, rec *obs.Recorder) {
	if s.cfg.TraceDir == "" {
		return
	}
	path := filepath.Join(s.cfg.TraceDir, "check-"+id+".json")
	f, err := os.Create(path)
	if err != nil {
		s.log.Error("trace file", "request_id", id, "err", err)
		return
	}
	err = rec.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		s.log.Error("trace write", "request_id", id, "err", err)
		return
	}
	s.reg.Add("server.traces_written", 1)
}

// writeJSON answers with v as one line of compact JSON, sent with its
// Content-Length in a single write. The body is marshaled before the
// status goes out, so a value that cannot be marshaled answers a 500
// internal error rather than a truncated 200.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		s.log.Error("response encode failed", "err", err)
		s.reg.Add("server.errors.internal", 1)
		status = http.StatusInternalServerError
		// The middleware has already echoed the request and trace IDs
		// on the response headers. An ErrorResponse of strings always
		// marshals.
		tid, _, _ := obs.ParseTraceparent(w.Header().Get("traceparent"))
		body, _ = json.Marshal(ErrorResponse{
			RequestID: w.Header().Get("X-Request-Id"),
			TraceID:   tid,
			Error:     "encoding response: " + err.Error(),
			Kind:      "internal",
		})
	}
	s.writeBody(w, status, body)
}

// writeBody sends an already marshaled JSON body and its trailing
// newline in a single write with its Content-Length.
func (s *Server) writeBody(w http.ResponseWriter, status int, body []byte) {
	body = append(body, '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		s.log.Error("response write failed", "err", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, id, tid string, status int, kind, msg string) {
	s.writeJSON(w, status, ErrorResponse{RequestID: id, TraceID: tid, Error: msg, Kind: kind})
}

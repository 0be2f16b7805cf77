package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	xmlspec "repro"
	"repro/internal/audit"
	"repro/internal/cardinality"
	"repro/internal/certificate"
	"repro/internal/consistency"
	"repro/internal/constraint"
	"repro/internal/digest"
	"repro/internal/dtd"
	"repro/internal/ilp"
	"repro/internal/introspect"
	"repro/internal/obs"
	"repro/internal/prover"
	"repro/internal/scope"
	"repro/internal/server"
	"repro/internal/speclint"
	"repro/internal/telemetry"
)

// layerMetric is one per-layer metric: its name, unit, and how its
// value is formed from the traced run's samples.
type layerMetric struct {
	name, unit string
}

// layerMetrics lists every per-layer metric in BENCHMARK.json order.
// Times ("us") are medians over the requests on which the layer ran;
// counts are means per request; shares are fractions of requests (or
// of time, for the last two). A layer that never runs on a workload —
// the prover on /check, witnesses on /explain — reports 0.
var layerMetrics = []layerMetric{
	{"server.handler_us", "us"},
	{"server.reported_check_us", "us"},
	{"server.overhead_us", "us"},
	{"json.request_decode_us", "us"},
	{"json.response_encode_us", "us"},
	{"json.response_bytes", "bytes"},
	{"xmlspec.parse_us", "us"},
	{"digest.spec_us", "us"},
	{"speclint.prepass_us", "us"},
	{"speclint.short_circuit_share", "share"},
	{"obs.recorder_us", "us"},
	{"telemetry.absorb_us", "us"},
	{"audit.record_us", "us"},
	{"consistency.check_us", "us"},
	{"consistency.witness_us", "us"},
	{"consistency.certificate_us", "us"},
	{"certificate.verify_us", "us"},
	{"certificate.bytes", "bytes"},
	{"scope.analysis_us", "us"},
	{"consistency.scopes", "count"},
	{"consistency.workers", "count"},
	{"cardinality.encode_us", "us"},
	{"cardinality.vars", "count"},
	{"cardinality.rows", "count"},
	{"ilp.solve_us", "us"},
	{"ilp.nodes", "count"},
	{"ilp.lp_calls", "count"},
	{"ilp.pivots", "count"},
	{"ilp.propagations", "count"},
	{"ilp.fast_path_share", "share"},
	{"ilp.rat_fallbacks", "count"},
	{"prover.saturate_us", "us"},
	{"prover.facts", "count"},
	{"prover.refuted_share", "share"},
	{"consistency.explain_us", "us"},
	{"explain.checks", "count"},
	{"explain.cores", "count"},
	{"explain.core_size", "count"},
	{"runtime.alloc_kb_per_req", "KiB"},
	{"runtime.gc_per_kreq", "1/kreq"},
	{"host.steal_share", "share"},
	{"layers.unattributed_share", "share"},
}

// tracer accumulates the traced run's per-request samples.
type tracer struct {
	times  map[string][]float64 // µs, one per request the layer ran on
	counts map[string]float64   // totals over all requests
	n      int
	// failed counts the in-process requests whose reply was wrong.
	failed   int
	failures []string
	// handlerUS and attributedUS sum, over every request, the handler's
	// time and the time of the top-level layers that run inside it.
	handlerUS, attributedUS float64
}

func (t *tracer) time(name string, d time.Duration) {
	t.times[name] = append(t.times[name], float64(d.Nanoseconds())/1e3)
}

func (t *tracer) timeUS(name string, us float64) { t.times[name] = append(t.times[name], us) }

func (t *tracer) count(name string, v float64) { t.counts[name] += v }

func (t *tracer) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 5 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// attribute records a top-level layer's time as part of the handler's.
func (t *tracer) attribute(name string, d time.Duration) {
	t.time(name, d)
	t.attributedUS += float64(d.Nanoseconds()) / 1e3
}

// tracedRun measures the per-layer metrics. Half the time goes to a
// closed loop against the daemon, for the numbers only the daemon can
// give (its reported check time, its GC cycles); the other half times,
// in this process, the public entry point of each module the daemon's
// pipeline calls, over the same generated requests.
func tracedRun(bin string, w *Workload, dur time.Duration) (*result, error) {
	host0, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	lr, gc, err := daemonPhase(bin, w, dur/2)
	if err != nil {
		return nil, err
	}
	t := &tracer{times: map[string][]float64{}, counts: map[string]float64{}}
	if err := t.inProcess(w, dur/2); err != nil {
		return nil, err
	}
	host1, err := readHostCPU()
	if err != nil {
		return nil, err
	}

	res := &result{
		attempted: lr.attempted + t.n,
		failed:    lr.failed + t.failed,
		failures:  append(lr.failures, t.failures...),
	}
	res.notes = append(res.notes, fmt.Sprintf("traced run: %d daemon requests, %d in-process requests", lr.attempted, t.n))
	per := func(name string) float64 { return t.counts[name] / float64(max(t.n, 1)) }
	share := func(num, den string) float64 {
		if t.counts[den] == 0 {
			return 0
		}
		return t.counts[num] / t.counts[den]
	}
	for _, m := range layerMetrics {
		var v float64
		switch {
		case m.name == "server.reported_check_us":
			v = median(lr.reportedUS)
		case m.name == "server.overhead_us":
			v = median(lr.overheadUS)
		case m.name == "runtime.gc_per_kreq":
			v = gc
		case m.name == "host.steal_share":
			v = stealShare(host0, host1)
		case m.name == "layers.unattributed_share":
			if t.handlerUS > 0 {
				v = (t.handlerUS - t.attributedUS) / t.handlerUS
			}
		case m.name == "ilp.fast_path_share":
			v = share("ilp.fast_path_lps", "ilp.lp_calls")
		case m.name == "runtime.alloc_kb_per_req":
			v = per("runtime.alloc_bytes") / 1024
		case strings.HasSuffix(m.name, "_share"):
			v = per(m.name)
		case m.unit == "us":
			v = median(t.times[m.name])
		default:
			v = per(m.name)
		}
		res.set(m.name, m.unit, v)
	}
	return res, nil
}

// daemonPhase runs a closed loop against a fresh daemon and returns it
// with the daemon's GC cycles per thousand requests.
func daemonPhase(bin string, w *Workload, dur time.Duration) (*loopResult, float64, error) {
	d, _, err := coldStarts(bin, w, 1)
	if err != nil {
		return nil, 0, err
	}
	defer d.stop()
	c := newClient(d.addr)
	defer c.close()
	gc0, err := gcCycles(c)
	if err != nil {
		return nil, 0, err
	}
	lr, err := runLoop(c, w, d.pid(), dur)
	if err != nil {
		return nil, 0, err
	}
	gc1, err := gcCycles(c)
	if err != nil {
		return nil, 0, err
	}
	lr.verifyCertificates(w)
	return lr, (gc1 - gc0) * 1000 / float64(max(lr.attempted, 1)), nil
}

// gcCycles scrapes the daemon's completed GC cycle count.
func gcCycles(c *client) (float64, error) {
	body, err := c.get("/metrics")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if name, val, ok := strings.Cut(line, " "); ok && strings.HasSuffix(name, "process_gc_cycles_total") {
			return strconv.ParseFloat(strings.TrimSpace(val), 64)
		}
	}
	return 0, errors.New("no process_gc_cycles_total in /metrics")
}

// inProcess times each layer on requests 0, 1, … until dur has passed.
func (t *tracer) inProcess(w *Workload, dur time.Duration) error {
	srv := server.NewServer(server.Config{
		Deadline:    30 * time.Second,
		Parallelism: -1,
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	h := srv.Handler()
	reg := telemetry.NewRegistry("")
	alog, err := audit.New(audit.Options{})
	if err != nil {
		return err
	}
	defer alog.Close()
	deadline := time.Now().Add(dur)
	for i := 0; time.Now().Before(deadline); i++ {
		if err := t.request(w, w.Request(i), h, reg, alog); err != nil {
			return err
		}
	}
	return nil
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// request traces one request through every layer.
func (t *tracer) request(w *Workload, s Spec, h http.Handler, reg *telemetry.Registry, alog *audit.Log) error {
	body := s.Body()
	t.n++

	// The whole serving path, in process: middleware, decode, parse,
	// digest, the check, the sinks, and the response encoding.
	rr := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, w.Endpoint, bytes.NewReader(body))
	a0 := heapAllocBytes()
	t0 := time.Now()
	h.ServeHTTP(rr, req)
	handler := time.Since(t0)
	t.count("runtime.alloc_bytes", float64(heapAllocBytes()-a0))
	var got reply
	if rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &got) != nil || got.Verdict != s.Expect.String() {
		t.fail("%s: in-process handler status %d, verdict %q, want %s", s.Key, rr.Code, got.Verdict, s.Expect)
		return nil
	}
	t.time("server.handler_us", handler)
	t.handlerUS += float64(handler.Nanoseconds()) / 1e3
	t.count("json.response_bytes", float64(rr.Body.Len()))

	t0 = time.Now()
	var creq server.CheckRequest
	err := json.Unmarshal(body, &creq)
	t.attribute("json.request_decode_us", time.Since(t0))
	if err != nil {
		return err
	}
	t0 = time.Now()
	_, err = xmlspec.Parse(creq.DTD, creq.Constraints)
	t.attribute("xmlspec.parse_us", time.Since(t0))
	if err != nil {
		return err
	}
	d, set, err := parseSpec(s)
	if err != nil {
		return err
	}
	t0 = time.Now()
	dig := digest.Spec(d, set)
	t.attribute("digest.spec_us", time.Since(t0))

	t0 = time.Now()
	rep := speclint.PrepassValidated(d, set, nil)
	t.time("speclint.prepass_us", time.Since(t0))
	lintRefuted := rep.SoundError() != nil
	if lintRefuted {
		t.count("speclint.short_circuit_share", 1)
	}

	// The options the daemon's handler passes: the worker pool, a
	// progress publisher, pprof labels, a context; /check adds the
	// attribution ledger.
	base := func() consistency.Options {
		o := consistency.Options{
			Parallelism:  -1,
			Progress:     introspect.NewPublisher(),
			ProfileLabel: dig,
			Ctx:          context.Background(),
		}
		if w.Endpoint == "/check" {
			o.Ledger = introspect.NewLedger()
		}
		return o
	}
	rec := obs.New()
	var cert *certificate.Certificate
	if w.Endpoint == "/explain" {
		cert, err = t.explain(d, set, base, rec)
	} else {
		cert, err = t.check(d, set, base, rec, lintRefuted)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", s.Key, err)
	}

	t0 = time.Now()
	reg.Absorb(rec)
	t.attribute("telemetry.absorb_us", time.Since(t0))
	t0 = time.Now()
	spans := rec.Spans()
	phases := make([]audit.Phase, len(spans))
	for i, sp := range spans {
		phases[i] = audit.Phase{Path: sp.Path, DurationUS: sp.DurationUS}
	}
	alog.Record(audit.Event{RequestID: "-", SpecDigest: dig, Verdict: s.Expect.String(), Phases: phases})
	t.attribute("audit.record_us", time.Since(t0))

	if cert != nil {
		t0 = time.Now()
		err := certificate.Verify(d, set, cert)
		t.time("certificate.verify_us", time.Since(t0))
		if err != nil {
			return fmt.Errorf("%s: certificate rejected: %w", s.Key, err)
		}
		b, err := json.Marshal(cert)
		if err != nil {
			return err
		}
		t.count("certificate.bytes", float64(len(b)))
	}

	// Re-encode the handler's own response the way the handler does.
	var resp any = &server.CheckResponse{}
	if w.Endpoint == "/explain" {
		resp = &server.ExplainResponse{}
	}
	if err := json.Unmarshal(rr.Body.Bytes(), resp); err != nil {
		return err
	}
	var buf bytes.Buffer
	t0 = time.Now()
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(resp)
	t.attribute("json.response_encode_us", time.Since(t0))
	return err
}

// check times consistency.Check with the daemon's options, the cost of
// its witness, certificate and recorder, and the route layers beneath
// it.
func (t *tracer) check(d *dtd.DTD, set *constraint.Set, base func() consistency.Options, rec *obs.Recorder, lintRefuted bool) (*certificate.Certificate, error) {
	t0 := time.Now()
	res, err := consistency.Check(d, set, base())
	full := time.Since(t0)
	if err != nil {
		return nil, err
	}
	t.attribute("consistency.check_us", full)

	o := base()
	o.SkipWitness = true
	t0 = time.Now()
	if _, err := consistency.Check(d, set, o); err != nil {
		return nil, err
	}
	if res.Verdict == consistency.Consistent {
		t.timeUS("consistency.witness_us", float64((full-time.Since(t0)).Nanoseconds())/1e3)
	}
	o = base()
	o.SkipCertificate = true
	t0 = time.Now()
	if _, err := consistency.Check(d, set, o); err != nil {
		return nil, err
	}
	if res.Certificate != nil {
		t.timeUS("consistency.certificate_us", float64((full-time.Since(t0)).Nanoseconds())/1e3)
	}
	o = base()
	o.Obs = rec
	t0 = time.Now()
	if _, err := consistency.Check(d, set, o); err != nil {
		return nil, err
	}
	t.attribute("obs.recorder_us", time.Since(t0)-full)

	st := res.Stats
	t.count("consistency.scopes", float64(st.Scopes))
	t.count("consistency.workers", float64(st.Workers))
	t.count("ilp.nodes", float64(st.ILPNodes))
	t.count("ilp.lp_calls", float64(st.LPCalls))
	t.count("ilp.pivots", float64(st.Pivots))
	t.count("ilp.propagations", float64(st.Propagations))
	t.count("ilp.fast_path_lps", float64(st.FastPathLPs))
	t.count("ilp.rat_fallbacks", float64(st.RatFallbacks))
	if !lintRefuted {
		t.route(d, set)
	}
	return res.Certificate, nil
}

// explain times consistency.Explain with the daemon's options, the
// recorder's cost on it, and the saturation prover on its own.
func (t *tracer) explain(d *dtd.DTD, set *constraint.Set, base func() consistency.Options, rec *obs.Recorder) (*certificate.Certificate, error) {
	t0 := time.Now()
	ex, err := consistency.Explain(d, set, base())
	full := time.Since(t0)
	if err != nil {
		return nil, err
	}
	t.attribute("consistency.explain_us", full)
	o := base()
	o.Obs = rec
	t0 = time.Now()
	if _, err := consistency.Explain(d, set, o); err != nil {
		return nil, err
	}
	t.attribute("obs.recorder_us", time.Since(t0)-full)
	t.count("explain.checks", float64(ex.Checks))
	t.count("explain.cores", float64(ex.Cores))
	t.count("explain.core_size", float64(len(ex.Core)))

	// The decision Explain starts with: lint, then the prover.
	o = base()
	o.Explain = true
	t0 = time.Now()
	if _, err := consistency.Check(d, set, o); err != nil {
		return nil, err
	}
	t.time("consistency.check_us", time.Since(t0))
	t0 = time.Now()
	out := prover.Saturate(d, set)
	t.time("prover.saturate_us", time.Since(t0))
	t.count("prover.facts", float64(out.Facts))
	if out.Refuted {
		t.count("prover.refuted_share", 1)
	}
	return ex.Certificate, nil
}

// route re-runs, through the modules' public functions, the decision
// route consistency.Check takes after the lint prepass: scope analysis
// and the per-scope decomposition on hierarchical specs, then the
// cardinality encoding and the ILP decide loop.
func (t *tracer) route(d *dtd.DTD, set *constraint.Set) {
	prof := constraint.Classify(set)
	switch {
	case prof.Relative:
		t0 := time.Now()
		plain := !d.IsRecursive() && len(scope.ConflictingPairs(d, set)) == 0
		contexts := scope.ContextTypes(d, set)
		r := &scopeRoute{t: t, d: d, set: set, contexts: contexts, memo: map[string]ilp.Verdict{}, analysis: time.Since(t0)}
		if plain {
			r.scope(map[string]bool{d.Root: true}, d.Root)
		}
		t.timeUS("scope.analysis_us", float64(r.analysis.Nanoseconds())/1e3)
		if r.encodes > 0 {
			t.timeUS("cardinality.encode_us", float64(r.encode.Nanoseconds())/1e3)
			t.timeUS("ilp.solve_us", float64(r.solve.Nanoseconds())/1e3)
		}
	case len(set.Incls) == 0 && !prof.Regular:
		// Keys alone: only DTD satisfiability, no encoding.
	case prof.Regular:
		t0 := time.Now()
		enc, err := cardinality.EncodeRegular(d, set)
		t.time("cardinality.encode_us", time.Since(t0))
		if err == nil {
			t.decide(enc.Flow)
		}
	default:
		t0 := time.Now()
		enc, err := cardinality.EncodeAbsolute(d, set)
		t.time("cardinality.encode_us", time.Since(t0))
		if err == nil {
			t.decide(enc.Flow)
		}
	}
}

func (t *tracer) decide(f *cardinality.Flow) {
	t.countSystem(f.Sys)
	t0 := time.Now()
	cardinality.DecideFlow(f, ilp.Options{})
	t.time("ilp.solve_us", time.Since(t0))
}

func (t *tracer) countSystem(sys *ilp.System) {
	t.count("cardinality.vars", float64(sys.NumVars()))
	t.count("cardinality.rows", float64(len(sys.Lins)+len(sys.Conds)+len(sys.Quads)))
}

// scopeRoute walks the Theorem 4.3 decomposition the way the checker's
// sequential path does: exits first, inconsistent exits forced absent,
// one absolute encoding and decide loop per (chain, type) scope.
type scopeRoute struct {
	t                       *tracer
	d                       *dtd.DTD
	set                     *constraint.Set
	contexts                map[string]bool
	memo                    map[string]ilp.Verdict
	analysis, encode, solve time.Duration
	encodes                 int
}

func (r *scopeRoute) scope(chain map[string]bool, tau string) ilp.Verdict {
	key := scope.ChainKey(chain, tau)
	if v, ok := r.memo[key]; ok {
		return v
	}
	r.memo[key] = ilp.Unknown
	t0 := time.Now()
	sd, exits := scope.DTD(r.d, r.contexts, tau)
	r.analysis += time.Since(t0)
	var banned []string
	for _, e := range exits {
		sub := map[string]bool{e: true}
		for c := range chain {
			sub[c] = true
		}
		if r.scope(sub, e) == ilp.Unsat {
			banned = append(banned, e)
		}
	}
	t0 = time.Now()
	local, forceZero := scope.LocalSet(r.d, sd, r.set, chain, tau)
	r.analysis += time.Since(t0)
	t0 = time.Now()
	enc, err := cardinality.EncodeAbsolute(sd, local)
	r.encode += time.Since(t0)
	r.encodes++
	if err != nil {
		return ilp.Unknown
	}
	for _, x := range append(forceZero, banned...) {
		if fn := enc.Flow.Lookup(x, 0); fn >= 0 {
			enc.Flow.Sys.AddConst(enc.Flow.Vars[fn], 0)
		}
	}
	r.t.countSystem(enc.Flow.Sys)
	t0 = time.Now()
	res, _ := cardinality.DecideFlow(enc.Flow, ilp.Options{})
	r.solve += time.Since(t0)
	r.memo[key] = res.Verdict
	return res.Verdict
}

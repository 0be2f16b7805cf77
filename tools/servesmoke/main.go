// Command servesmoke is the end-to-end smoke test behind `make
// serve-smoke`: it builds nothing itself, but drives an already-built
// xmlconsistd binary through its whole surface:
//
//  1. start the daemon on a random port — with a JSONL audit log, a
//     generous slow threshold, a quarantine directory, and an SLO —
//     and wait for its address line;
//  2. GET /healthz, asserting the X-Request-Id echo;
//  3. POST /check with a known-consistent and a known-inconsistent
//     spec, asserting the verdicts and that each response names its
//     spec digest;
//  4. POST /explain with the inconsistent spec, asserting the verdict
//     plus a non-empty minimal core, rule derivation, and repair
//     hints;
//  5. POST /check with a 1ms deadline against an exponential-search
//     spec, asserting a deadline error rather than a verdict;
//  6. GET /debug/status and /debug/checks, requiring the just-checked
//     digest on the status page;
//  7. GET /metrics and validate the Prometheus exposition line by
//     line, requiring the check-latency histogram, build-info,
//     rolling-window, SLO burn-rate, and explain metrics;
//  8. POST a deliberately hard check (a Figure 3 regular-fragment
//     reduction) in the background and poll GET /debug/inflight
//     until a row reports a live solver snapshot — non-empty phase
//     and a nonzero node count — proving the introspection plumbing
//     publishes while a check runs, not just after it;
//  9. POST /check with a caller-supplied W3C traceparent and follow
//     the trace ID end to end: the response must echo it (header and
//     body), and the OpenMetrics /metrics exposition (served under
//     Accept negotiation, "# EOF"-terminated) must carry it as an
//     exemplar on the check-duration histogram;
//  10. POST the Figure 2 library spec three times: the third answer
//     must come from the verdict cache — its body equal to the first
//     apart from request_id, trace_id and elapsed_us — and /metrics
//     must count exactly one more admit and one more hit;
//  11. SIGTERM the daemon, require a clean exit, then parse the audit
//     log and match it against the responses — including an
//     op:"explain" event, the propagated trace ID, and a last event
//     (the cache hit) with a server.cache/verify phase and no solver
//     phase — and require the quarantine to hold exactly the deadline
//     abort's flight bundle (one abort-<trace_id> .json+.spec pair,
//     nothing else);
//  12. restart the daemon with a 1ns slow threshold, drive three
//     checks (the first under a known traceparent), and require
//     exactly one flight bundle, named slow-<trace_id> after that
//     known trace (the shared capture rate limit holds).
//
// Usage: servesmoke -bin ./bin/xmlconsistd
//
// Exit status: 0 when every step passes, 1 otherwise.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

const consistentDTD = `<!ELEMENT library (book*)>
<!ELEMENT book (chapter+)>
<!ELEMENT chapter EMPTY>
<!ATTLIST book isbn CDATA #REQUIRED>
<!ATTLIST chapter num CDATA #REQUIRED>`

const consistentKeys = `book.isbn -> book`

const inconsistentDTD = `<!ELEMENT db (country+)>
<!ELEMENT country (province+, capital+)>
<!ELEMENT province (capital, city*)>
<!ELEMENT capital EMPTY>
<!ELEMENT city EMPTY>
<!ATTLIST country name CDATA #REQUIRED>
<!ATTLIST province name CDATA #REQUIRED>
<!ATTLIST capital inProvince CDATA #REQUIRED>`

const inconsistentKeys = `country.name -> country
country(province.name -> province)
country(capital.inProvince -> capital)
country(capital.inProvince ⊆ province.name)`

func main() {
	bin := flag.String("bin", "bin/xmlconsistd", "path to the xmlconsistd binary under test")
	flag.Parse()
	if err := smoke(*bin); err != nil {
		fmt.Fprintln(os.Stderr, "servesmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("servesmoke: ok")
}

var listenRE = regexp.MustCompile(`listening on (http://\S+)`)

// daemon is one running xmlconsistd under test.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

// startDaemon launches the binary with the given extra flags and waits
// for its address announcement.
func startDaemon(bin string, extra ...string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-deadline", "10s"}, extra...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	urlc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				urlc <- m[1]
			}
		}
	}()
	select {
	case base := <-urlc:
		return &daemon{cmd: cmd, base: base}, nil
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		return nil, fmt.Errorf("daemon did not announce its listen address")
	}
}

// shutdown SIGTERMs the daemon and requires a clean exit.
func (d *daemon) shutdown() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("daemon exit after SIGTERM: %w", err)
		}
	case <-time.After(15 * time.Second):
		return fmt.Errorf("daemon did not exit after SIGTERM")
	}
	return nil
}

func smoke(bin string) error {
	work, err := os.MkdirTemp("", "servesmoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	auditPath := filepath.Join(work, "audit.jsonl")
	quarantine := filepath.Join(work, "quarantine")

	d, err := startDaemon(bin,
		"-audit-log", auditPath,
		"-slow-threshold", "1h", // nothing in this run is slow
		"-quarantine-dir", quarantine,
		"-slo-target-ms", "250",
		"-log-format", "json",
	)
	if err != nil {
		return err
	}
	defer d.cmd.Process.Kill()
	base := d.base
	fmt.Println("servesmoke: daemon at", base)

	if err := checkHealthz(base); err != nil {
		return err
	}
	digest, requestID, err := checkVerdict(base, consistentDTD, consistentKeys, "consistent")
	if err != nil {
		return err
	}
	if _, _, err := checkVerdict(base, inconsistentDTD, inconsistentKeys, "inconsistent"); err != nil {
		return err
	}
	if err := checkExplain(base); err != nil {
		return err
	}
	if err := checkDeadline(base); err != nil {
		return err
	}
	if err := checkStatusPages(base, digest); err != nil {
		return err
	}
	if err := checkMetrics(base); err != nil {
		return err
	}
	if err := checkInflight(base); err != nil {
		return err
	}
	if err := checkTraceCorrelation(base); err != nil {
		return err
	}
	hitID, err := checkVerdictCache(base)
	if err != nil {
		return err
	}

	if err := d.shutdown(); err != nil {
		return err
	}
	fmt.Println("servesmoke: clean shutdown")

	// The audit trail is flushed on shutdown; the first event must be
	// the consistent check we drove, digest and all, and the last the
	// verdict-cache hit.
	if err := checkAuditLog(auditPath, requestID, digest, hitID); err != nil {
		return err
	}
	// Nothing crossed the 1h slow threshold, but the 1ms-deadline abort
	// tripped the flight recorder's abort trigger: the quarantine must
	// hold exactly that bundle and nothing else.
	entries, err := os.ReadDir(quarantine)
	if err != nil {
		return fmt.Errorf("quarantine dir: %w", err)
	}
	if len(entries) != 2 {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return fmt.Errorf("quarantine has %v, want exactly the deadline abort's .json+.spec pair", names)
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "abort-") {
			return fmt.Errorf("quarantine holds %s, want only abort-* flight bundles after a fast run", e.Name())
		}
	}
	fmt.Println("servesmoke: quarantine holds exactly the deadline abort's flight bundle")

	return slowCaptureRun(bin, filepath.Join(work, "q2"))
}

func checkHealthz(base string) error {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("GET /healthz: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/healthz status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		return fmt.Errorf("/healthz response lacks the X-Request-Id header")
	}
	fmt.Println("servesmoke: /healthz ok (X-Request-Id echoed)")
	return nil
}

func postCheck(base string, body map[string]any) (*http.Response, []byte, error) {
	return postCheckTraced(base, body, "")
}

// postCheckTraced posts a check, propagating the caller's W3C
// traceparent header when one is given.
func postCheckTraced(base string, body map[string]any, traceparent string) (*http.Response, []byte, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/check", bytes.NewReader(payload))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("POST /check: %w", err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp, out, err
}

// checkVerdict drives one check and returns the spec digest and
// request ID the server reported.
func checkVerdict(base, dtd, keys, want string) (digest, requestID string, err error) {
	resp, out, err := postCheck(base, map[string]any{"dtd": dtd, "constraints": keys})
	if err != nil {
		return "", "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", "", fmt.Errorf("/check status %d: %s", resp.StatusCode, out)
	}
	var cr struct {
		RequestID   string          `json:"request_id"`
		SpecDigest  string          `json:"spec_digest"`
		Verdict     string          `json:"verdict"`
		Certificate json.RawMessage `json:"certificate"`
	}
	if err := json.Unmarshal(out, &cr); err != nil {
		return "", "", fmt.Errorf("decoding /check response: %w", err)
	}
	if cr.Verdict != want {
		return "", "", fmt.Errorf("verdict %q, want %q", cr.Verdict, want)
	}
	if len(cr.Certificate) == 0 {
		return "", "", fmt.Errorf("%s verdict carried no certificate", want)
	}
	if !strings.HasPrefix(cr.SpecDigest, "spec-") {
		return "", "", fmt.Errorf("spec digest %q, want spec-<hex>", cr.SpecDigest)
	}
	if hdr := resp.Header.Get("X-Request-Id"); hdr != cr.RequestID {
		return "", "", fmt.Errorf("X-Request-Id %q != body request_id %q", hdr, cr.RequestID)
	}
	fmt.Printf("servesmoke: /check %s ok (certificate attached, digest %s)\n", want, cr.SpecDigest)
	return cr.SpecDigest, cr.RequestID, nil
}

// checkExplain drives the inconsistent spec through /explain and
// requires the full explanation: a minimal core with rendered members,
// a replayable rule derivation, ranked repair hints, and a certificate.
func checkExplain(base string) error {
	payload, err := json.Marshal(map[string]any{
		"dtd": inconsistentDTD, "constraints": inconsistentKeys,
	})
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/explain", "application/json", bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("POST /explain: %w", err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/explain status %d: %s", resp.StatusCode, out)
	}
	var er struct {
		SpecDigest      string            `json:"spec_digest"`
		Verdict         string            `json:"verdict"`
		Core            []int             `json:"core"`
		CoreConstraints []string          `json:"core_constraints"`
		Derivation      []json.RawMessage `json:"derivation"`
		Hints           []struct {
			Action string `json:"action"`
		} `json:"hints"`
		Cores       int             `json:"cores"`
		Certificate json.RawMessage `json:"certificate"`
	}
	if err := json.Unmarshal(out, &er); err != nil {
		return fmt.Errorf("decoding /explain response: %w", err)
	}
	if er.Verdict != "inconsistent" {
		return fmt.Errorf("/explain verdict %q, want inconsistent", er.Verdict)
	}
	if len(er.Core) == 0 || len(er.CoreConstraints) != len(er.Core) {
		return fmt.Errorf("/explain core %v / %v, want non-empty parallel slices", er.Core, er.CoreConstraints)
	}
	if len(er.Derivation) == 0 {
		return fmt.Errorf("/explain carried no rule derivation")
	}
	if len(er.Hints) == 0 || er.Cores < 1 {
		return fmt.Errorf("/explain hints %v over %d cores, want ranked hints", er.Hints, er.Cores)
	}
	for _, h := range er.Hints {
		if h.Action != "drop" && h.Action != "weaken" {
			return fmt.Errorf("/explain hint action %q, want drop or weaken", h.Action)
		}
	}
	if len(er.Certificate) == 0 {
		return fmt.Errorf("/explain verdict carried no certificate")
	}
	if !strings.HasPrefix(er.SpecDigest, "spec-") {
		return fmt.Errorf("/explain spec digest %q, want spec-<hex>", er.SpecDigest)
	}
	fmt.Printf("servesmoke: /explain ok (core of %d, %d-step derivation, %d hints over %d cores)\n",
		len(er.Core), len(er.Derivation), len(er.Hints), er.Cores)
	return nil
}

func checkDeadline(base string) error {
	in := experiments.Fig3Unary(rand.New(rand.NewSource(7)), 16)
	resp, out, err := postCheck(base, map[string]any{
		"dtd":         in.D.String(),
		"constraints": in.Set.String(),
		"deadline_ms": 1,
	})
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		return fmt.Errorf("deadline check: status %d, want 504: %s", resp.StatusCode, out)
	}
	var er struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(out, &er); err != nil || er.Kind != "deadline" {
		return fmt.Errorf("deadline check: kind %q (err %v), want deadline", er.Kind, err)
	}
	fmt.Println("servesmoke: 1ms deadline aborts with a deadline error, not a verdict")
	return nil
}

// checkStatusPages requires /debug/status to render (mentioning the
// digest just checked) and /debug/checks to decode.
func checkStatusPages(base, digest string) error {
	resp, err := http.Get(base + "/debug/status")
	if err != nil {
		return fmt.Errorf("GET /debug/status: %w", err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/debug/status status %d", resp.StatusCode)
	}
	if !strings.Contains(string(page), digest) {
		return fmt.Errorf("/debug/status does not mention just-checked digest %s", digest)
	}

	jr, err := http.Get(base + "/debug/checks")
	if err != nil {
		return fmt.Errorf("GET /debug/checks: %w", err)
	}
	defer jr.Body.Close()
	var st struct {
		AuditEvents uint64 `json:"audit_events"`
		Windows     []struct {
			Label string `json:"label"`
		} `json:"windows"`
		HotDigests []struct {
			Digest string `json:"digest"`
		} `json:"hot_digests"`
	}
	if err := json.NewDecoder(jr.Body).Decode(&st); err != nil {
		return fmt.Errorf("decoding /debug/checks: %w", err)
	}
	if st.AuditEvents == 0 {
		return fmt.Errorf("/debug/checks reports zero audit events after three checks")
	}
	if len(st.Windows) != 3 {
		return fmt.Errorf("/debug/checks reports %d windows, want 3", len(st.Windows))
	}
	var hot bool
	for _, h := range st.HotDigests {
		if h.Digest == digest {
			hot = true
		}
	}
	if !hot {
		return fmt.Errorf("/debug/checks hot digests %v omit %s", st.HotDigests, digest)
	}
	fmt.Printf("servesmoke: status pages ok (%d audited, digest on the board)\n", st.AuditEvents)
	return nil
}

func checkMetrics(base string) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	exp, err := telemetry.ParseExposition(string(text))
	if err != nil {
		return fmt.Errorf("exposition invalid: %w", err)
	}
	for _, want := range []string{
		"xmlconsist_build_info",
		"xmlconsist_server_requests_total",
		"xmlconsist_server_check_us_count",
		"xmlconsist_server_check_us_sum",
		"xmlconsist_process_goroutines",
		"xmlconsist_checks_per_second_1m",
		"xmlconsist_checks_per_second_5m",
		"xmlconsist_checks_per_second_1h",
		"xmlconsist_check_error_ratio_1m",
		"xmlconsist_check_latency_p50_us_1m",
		"xmlconsist_check_latency_p99_us_1h",
		"xmlconsist_slo_target_ms",
		"xmlconsist_slo_objective",
		"xmlconsist_slo_burn_rate_1m",
		"xmlconsist_slo_burn_rate_5m",
		"xmlconsist_slo_burn_rate_1h",
		"xmlconsist_server_audit_events",
		"xmlconsist_server_uptime_seconds",
		"xmlconsist_server_explains_total",
		"xmlconsist_server_explain_us_count",
	} {
		if _, ok := exp.Sample(want); !ok {
			return fmt.Errorf("metric %s missing from /metrics", want)
		}
	}
	buckets := 0
	for _, s := range exp.Samples {
		if s.Name == "xmlconsist_server_check_us_bucket" {
			buckets++
		}
	}
	if buckets == 0 {
		return fmt.Errorf("no check-latency histogram buckets in /metrics")
	}
	lines := 0
	for _, l := range strings.Split(string(text), "\n") {
		if strings.TrimSpace(l) != "" {
			lines++
		}
	}
	fmt.Printf("servesmoke: /metrics ok (%d lines, %d samples, %d latency buckets)\n",
		lines, len(exp.Samples), buckets)
	return nil
}

// checkInflight fires a deliberately hard check — a Figure 3
// regular-fragment reduction that keeps the branch-and-bound busy for
// on the order of a second — and polls /debug/inflight until a row
// shows a live solver snapshot: non-empty phase and nonzero explored
// nodes. SkipWitness keeps the eventual response small; the generous
// deadline only bounds the worst case.
func checkInflight(base string) error {
	in := experiments.Fig3Regular(rand.New(rand.NewSource(7)), 8)
	done := make(chan error, 1)
	go func() {
		resp, out, err := postCheck(base, map[string]any{
			"dtd":         in.D.String(),
			"constraints": in.Set.String(),
			"deadline_ms": 8000,
			"options":     map[string]any{"skip_witness": true},
		})
		if err != nil {
			done <- err
			return
		}
		if resp.StatusCode != http.StatusOK {
			done <- fmt.Errorf("hard check status %d: %s", resp.StatusCode, out)
			return
		}
		done <- nil
	}()

	type row struct {
		RequestID string `json:"request_id"`
		Phase     string `json:"phase"`
		ScopeKey  string `json:"scope_key"`
		Nodes     int    `json:"nodes"`
	}
	deadline := time.Now().Add(10 * time.Second)
	var live *row
	for live == nil && time.Now().Before(deadline) {
		resp, err := http.Get(base + "/debug/inflight")
		if err != nil {
			return fmt.Errorf("GET /debug/inflight: %w", err)
		}
		var ir struct {
			Inflight []row `json:"inflight"`
		}
		err = json.NewDecoder(resp.Body).Decode(&ir)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("decoding /debug/inflight: %w", err)
		}
		for i, r := range ir.Inflight {
			if r.Phase != "" && r.Nodes > 0 {
				live = &ir.Inflight[i]
				break
			}
		}
		if live == nil {
			time.Sleep(15 * time.Millisecond)
		}
	}
	if live == nil {
		return fmt.Errorf("/debug/inflight never showed a live solver snapshot for the hard check")
	}
	if err := <-done; err != nil {
		return err
	}
	fmt.Printf("servesmoke: /debug/inflight ok (live snapshot: phase %s, scope %q, %d nodes)\n",
		live.Phase, live.ScopeKey, live.Nodes)
	return nil
}

// The fixed trace context servesmoke propagates in step 9, W3C
// traceparent format: version 00, a 16-byte trace ID, the caller's
// 8-byte span ID, and the sampled flag.
const (
	sentTraceID     = "4bf92f3577b34da6a3ce929d0e0e4736"
	sentTraceparent = "00-" + sentTraceID + "-00f067aa0ba902b7-01"
)

// checkTraceCorrelation drives one check under a caller-supplied
// traceparent and follows the trace ID across the serving artifacts:
// the echoed response header, the response body, and an OpenMetrics
// exemplar on the check-duration histogram.
func checkTraceCorrelation(base string) error {
	resp, out, err := postCheckTraced(base,
		map[string]any{"dtd": consistentDTD, "constraints": consistentKeys}, sentTraceparent)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("traced check status %d: %s", resp.StatusCode, out)
	}
	echo := resp.Header.Get("traceparent")
	parts := strings.Split(echo, "-")
	if len(parts) != 4 || parts[0] != "00" || parts[1] != sentTraceID {
		return fmt.Errorf("traceparent echo %q does not join trace %s", echo, sentTraceID)
	}
	if parts[2] == "00f067aa0ba902b7" {
		return fmt.Errorf("traceparent echo %q reuses the caller's span ID instead of the server's own", echo)
	}
	var cr struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(out, &cr); err != nil {
		return fmt.Errorf("decoding traced /check response: %w", err)
	}
	if cr.TraceID != sentTraceID {
		return fmt.Errorf("response trace_id %q, want %s", cr.TraceID, sentTraceID)
	}

	// The traced check was the most recent observation, so its bucket's
	// exemplar must name our trace — but only in the OpenMetrics
	// exposition, negotiated via Accept.
	req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "application/openmetrics-text")
	mresp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("GET /metrics (OpenMetrics): %w", err)
	}
	defer mresp.Body.Close()
	text, err := io.ReadAll(mresp.Body)
	if err != nil {
		return err
	}
	if ct := mresp.Header.Get("Content-Type"); ct != telemetry.OpenMetricsContentType {
		return fmt.Errorf("OpenMetrics content type %q, want %q", ct, telemetry.OpenMetricsContentType)
	}
	if !strings.HasSuffix(strings.TrimRight(string(text), "\n"), "# EOF") {
		return fmt.Errorf("OpenMetrics exposition is not # EOF-terminated")
	}
	exp, err := telemetry.ParseExposition(string(text))
	if err != nil {
		return fmt.Errorf("OpenMetrics exposition invalid: %w", err)
	}
	found := false
	for _, s := range exp.Samples {
		if s.Name == "xmlconsist_server_check_us_bucket" && s.Exemplar != nil &&
			s.Exemplar.Labels["trace_id"] == sentTraceID {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("no check_us bucket exemplar carries trace %s", sentTraceID)
	}
	fmt.Printf("servesmoke: trace correlation ok (trace %s echoed, body stamped, exemplar on /metrics)\n", sentTraceID)
	return nil
}

// checkVerdictCache posts the library spec three times and requires
// the third answer to be a verdict-cache hit: the same body as the
// first apart from the per-request fields, one more admit (on the
// second sighting) and one more hit on /metrics. It returns the hit's
// request ID.
func checkVerdictCache(base string) (string, error) {
	dtd, err := os.ReadFile("testdata/library.dtd")
	if err != nil {
		return "", err
	}
	keys, err := os.ReadFile("testdata/library.keys")
	if err != nil {
		return "", err
	}
	before, err := cacheCounters(base)
	if err != nil {
		return "", err
	}
	var bodies [3]map[string]any
	for i := range bodies {
		resp, out, err := postCheck(base, map[string]any{"dtd": string(dtd), "constraints": string(keys)})
		if err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("library check %d: status %d: %s", i+1, resp.StatusCode, out)
		}
		if err := json.Unmarshal(out, &bodies[i]); err != nil {
			return "", fmt.Errorf("decoding library check %d: %w", i+1, err)
		}
	}
	hitID, _ := bodies[2]["request_id"].(string)
	var stable [3]string
	for i, b := range bodies {
		for _, k := range []string{"request_id", "trace_id", "elapsed_us"} {
			delete(b, k)
		}
		out, err := json.Marshal(b)
		if err != nil {
			return "", err
		}
		stable[i] = string(out)
	}
	if stable[2] != stable[0] {
		return "", fmt.Errorf("cache hit body differs from the first response:\nfirst: %s\nhit:   %s", stable[0], stable[2])
	}
	after, err := cacheCounters(base)
	if err != nil {
		return "", err
	}
	for _, name := range []string{"admits", "hits"} {
		if d := after[name] - before[name]; d != 1 {
			return "", fmt.Errorf("server.cache.%s rose by %v over three identical checks, want 1", name, d)
		}
	}
	fmt.Println("servesmoke: verdict cache ok (third identical check is a verified hit, body unchanged)")
	return hitID, nil
}

// cacheCounters reads the verdict cache's admit and hit counters from
// /metrics.
func cacheCounters(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	exp, err := telemetry.ParseExposition(string(text))
	if err != nil {
		return nil, fmt.Errorf("exposition invalid: %w", err)
	}
	out := map[string]float64{}
	for _, name := range []string{"admits", "hits"} {
		s, ok := exp.Sample("xmlconsist_server_cache_" + name + "_total")
		if !ok {
			return nil, fmt.Errorf("metric xmlconsist_server_cache_%s_total missing from /metrics", name)
		}
		out[name] = s.Value
	}
	return out, nil
}

// checkAuditLog parses every line of the audit trail and requires the
// first event to match the consistent check's response and carry its
// "document" scope cost, and the last to be the verdict-cache hit
// hitID: re-verified under a server.cache/verify span, with no solver
// phase and no scope costs.
func checkAuditLog(path, requestID, digest, hitID string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("audit log: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 3 {
		return fmt.Errorf("audit log has %d lines, want >= 3 (two verdicts + one abort)", len(lines))
	}
	type event struct {
		RequestID  string `json:"request_id"`
		TraceID    string `json:"trace_id"`
		Op         string `json:"op"`
		SpecDigest string `json:"spec_digest"`
		Verdict    string `json:"verdict"`
		Abort      string `json:"abort"`
		Phases     []struct {
			Path string `json:"path"`
		} `json:"phases"`
		ScopeCosts []struct {
			Key     string `json:"key"`
			Verdict string `json:"verdict"`
		} `json:"scope_costs"`
	}
	var first, last event
	for i, line := range lines {
		var ev event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return fmt.Errorf("audit line %d unparsable: %q: %v", i+1, line, err)
		}
		if ev.TraceID == "" {
			return fmt.Errorf("audit line %d has no trace_id: %q", i+1, line)
		}
		if i == 0 {
			first = ev
		}
		last = ev
	}
	if first.RequestID != requestID || first.SpecDigest != digest || first.Verdict != "consistent" {
		return fmt.Errorf("first audit event %+v does not match response (id %s, digest %s)", first, requestID, digest)
	}
	sawDocument := false
	for _, sc := range first.ScopeCosts {
		if sc.Key == "document" && sc.Verdict != "" {
			sawDocument = true
		}
	}
	if !sawDocument {
		return fmt.Errorf("first audit event has no \"document\" scope cost with a verdict: %+v", first.ScopeCosts)
	}
	if last.RequestID != hitID {
		return fmt.Errorf("last audit event is %s, want the cache hit %s", last.RequestID, hitID)
	}
	if len(last.ScopeCosts) != 0 {
		return fmt.Errorf("cache hit %s carries scope costs %+v", hitID, last.ScopeCosts)
	}
	sawVerify := false
	for _, p := range last.Phases {
		if p.Path == "server.check/server.cache/verify" {
			sawVerify = true
		}
		if strings.Contains(p.Path, "xmlspec.check") {
			return fmt.Errorf("cache hit %s ran the checker (phase %s)", hitID, p.Path)
		}
	}
	if !sawVerify {
		return fmt.Errorf("cache hit %s has no server.cache/verify phase: %+v", hitID, last.Phases)
	}
	var sawAbort, sawExplain, sawTrace bool
	for _, line := range lines {
		var ev event
		json.Unmarshal([]byte(line), &ev)
		if ev.Abort == "deadline" {
			sawAbort = true
		}
		if ev.Op == "explain" && ev.Verdict == "inconsistent" {
			sawExplain = true
		}
		if ev.TraceID == sentTraceID && ev.Verdict == "consistent" {
			sawTrace = true
		}
	}
	if !sawAbort {
		return fmt.Errorf("audit log records no deadline abort")
	}
	if !sawExplain {
		return fmt.Errorf("audit log records no explain event")
	}
	if !sawTrace {
		return fmt.Errorf("audit log never saw the propagated trace %s", sentTraceID)
	}
	fmt.Printf("servesmoke: audit log ok (%d events, digests match)\n", len(lines))
	return nil
}

// slowCaptureRun restarts the daemon with an always-firing slow
// threshold and drives three checks, the first under a known
// traceparent. Exactly one flight bundle must land (the shared rate
// limit holds), and — because the first slow check dumped it — its
// filename must carry that known trace ID, closing the correlation
// loop from caller header to on-disk artifact.
func slowCaptureRun(bin, quarantine string) error {
	d, err := startDaemon(bin,
		"-slow-threshold", "1ns",
		"-quarantine-dir", quarantine,
	)
	if err != nil {
		return err
	}
	defer d.cmd.Process.Kill()

	const slowTraceID = "aaaabbbbccccddddeeeeffff00001111"
	resp, out, err := postCheckTraced(d.base,
		map[string]any{"dtd": consistentDTD, "constraints": consistentKeys},
		"00-"+slowTraceID+"-00f067aa0ba902b7-01")
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("slow run traced check: status %d: %s", resp.StatusCode, out)
	}
	var cr struct {
		SpecDigest string `json:"spec_digest"`
	}
	if err := json.Unmarshal(out, &cr); err != nil {
		return err
	}
	digest := cr.SpecDigest
	for i := 0; i < 2; i++ {
		if _, _, err := checkVerdict(d.base, consistentDTD, consistentKeys, "consistent"); err != nil {
			return fmt.Errorf("slow run check %d: %w", i, err)
		}
	}
	if err := d.shutdown(); err != nil {
		return err
	}

	entries, err := os.ReadDir(quarantine)
	if err != nil {
		return fmt.Errorf("quarantine dir: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(entries) != 2 {
		return fmt.Errorf("quarantine has %v, want exactly one flight bundle pair", names)
	}
	bundle := "slow-" + slowTraceID + ".json"
	spec := "slow-" + slowTraceID + ".spec"
	bundleData, err := os.ReadFile(filepath.Join(quarantine, bundle))
	if err != nil {
		return fmt.Errorf("flight bundle not named after the trace (have %v): %w", names, err)
	}
	specData, err := os.ReadFile(filepath.Join(quarantine, spec))
	if err != nil {
		return err
	}
	if !strings.Contains(string(specData), digest) {
		return fmt.Errorf("flight spec dump %s lacks digest %s", spec, digest)
	}
	if !strings.Contains(string(specData), "# trace_id: "+slowTraceID) {
		return fmt.Errorf("flight spec dump %s lacks its trace_id header", spec)
	}
	var bf struct {
		Schema  string `json:"schema"`
		Trigger string `json:"trigger"`
		TraceID string `json:"trace_id"`
		Trace   struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		} `json:"trace"`
		Goroutines string `json:"goroutines"`
	}
	if err := json.Unmarshal(bundleData, &bf); err != nil {
		return fmt.Errorf("flight bundle %s invalid: %w", bundle, err)
	}
	if bf.Schema != "flight/v1" || bf.Trigger != "slow" || bf.TraceID != slowTraceID {
		return fmt.Errorf("flight bundle header = %s/%s/%s, want flight/v1/slow/%s",
			bf.Schema, bf.Trigger, bf.TraceID, slowTraceID)
	}
	if len(bf.Trace.TraceEvents) == 0 {
		return fmt.Errorf("flight bundle %s carries no Chrome trace events", bundle)
	}
	if !strings.Contains(bf.Goroutines, "goroutine profile:") {
		return fmt.Errorf("flight bundle %s carries no goroutine profile", bundle)
	}
	fmt.Printf("servesmoke: flight capture ok (one pair named after trace %s)\n", slowTraceID)
	return nil
}

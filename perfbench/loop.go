package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/certificate"
	"repro/internal/consistency"
	"repro/internal/constraint"
	"repro/internal/dtd"
)

// client posts requests to one daemon over a keep-alive connection.
type client struct {
	http *http.Client
	base string
}

func newClient(addr string) *client {
	return &client{
		http: &http.Client{
			Transport: &http.Transport{DisableCompression: true},
			Timeout:   60 * time.Second,
		},
		base: "http://" + addr,
	}
}

func (c *client) post(endpoint string, body []byte) (int, []byte, error) {
	resp, err := c.http.Post(c.base+endpoint, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is the part of a /check or /explain response the loop reads
// while timing; certificates are kept raw and decoded only afterwards.
type reply struct {
	Verdict     string          `json:"verdict"`
	SpecDigest  string          `json:"spec_digest"`
	ElapsedUS   int64           `json:"elapsed_us"`
	Certificate json.RawMessage `json:"certificate"`
}

// loopResult is what one timed closed-loop run observed.
type loopResult struct {
	attempted, failed int
	cpuMS             []float64 // daemon CPU time, per completed request
	latencyMS         []float64 // client-observed, per completed request
	reportedUS        []float64 // the response's elapsed_us
	overheadUS        []float64 // client latency minus elapsed_us
	wall              time.Duration
	cpu               time.Duration // daemon CPU time over the whole loop
	repeats           int           // requests whose digest was already sent in the run
	failures          []string
	// certs holds, by request number, the certificate of the first
	// reply to every distinct spec, for verification after the clock
	// stops.
	certs map[int]json.RawMessage
}

// runLoop drives the workload's closed loop for dur over one
// connection: the next request goes out only once the previous reply
// is read. With one request in flight, the daemon's CPU time between
// sending a request and reading its reply is that request's cost.
func runLoop(c *client, w *Workload, pid int, dur time.Duration) (*loopResult, error) {
	res := &loopResult{certs: map[int]json.RawMessage{}}
	seen := map[string]bool{}
	cpu0, err := cpuClock(pid)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	deadline := t0.Add(dur)
	before := cpu0
	for i := 0; time.Now().Before(deadline); i++ {
		spec := w.Request(i)
		body := spec.Body()
		sent := time.Now()
		status, b, err := c.post(w.Endpoint, body)
		lat := time.Since(sent)
		after, cerr := cpuClock(pid)
		if cerr != nil {
			return nil, cerr
		}
		var r reply
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(b, &r)
		}
		res.attempted++
		switch {
		case err != nil:
			res.fail("%s: %v", spec.Key, err)
		case status != http.StatusOK:
			res.fail("%s: status %d: %.200s", spec.Key, status, b)
		case r.Verdict != spec.Expect.String():
			res.fail("%s: verdict %s, want %s", spec.Key, r.Verdict, spec.Expect)
		default:
			res.cpuMS = append(res.cpuMS, float64(after-before)/1e6)
			res.latencyMS = append(res.latencyMS, float64(lat.Nanoseconds())/1e6)
			res.reportedUS = append(res.reportedUS, float64(r.ElapsedUS))
			res.overheadUS = append(res.overheadUS, float64(lat.Nanoseconds())/1e3-float64(r.ElapsedUS))
		}
		if seen[r.SpecDigest] {
			res.repeats++
		} else if err == nil && status == http.StatusOK {
			seen[r.SpecDigest] = true
			res.certs[i] = r.Certificate
		}
		before = after
	}
	res.wall = time.Since(t0)
	res.cpu = before - cpu0
	return res, nil
}

func (r *loopResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// verifyCertificates checks the certificate of every distinct spec the
// run answered, outside the timed loop. A definitive verdict must carry
// a certificate that certificate.Verify accepts without re-running any
// solver.
func (r *loopResult) verifyCertificates(w *Workload) {
	for i, raw := range r.certs {
		s := w.Request(i)
		if err := verifyCertificate(s, raw); err != nil {
			r.fail("%s: %v", s.Key, err)
		}
	}
}

func verifyCertificate(s Spec, raw json.RawMessage) error {
	if s.Expect == consistency.Unknown {
		return nil
	}
	var cert *certificate.Certificate
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &cert); err != nil {
			return fmt.Errorf("decoding certificate: %w", err)
		}
	}
	if cert == nil {
		return fmt.Errorf("%s verdict without a certificate", s.Expect)
	}
	d, set, err := parseSpec(s)
	if err != nil {
		return err
	}
	if err := certificate.Verify(d, set, cert); err != nil {
		return fmt.Errorf("certificate rejected: %w", err)
	}
	return nil
}

// parseSpec parses a generated spec the way the daemon does.
func parseSpec(s Spec) (*dtd.DTD, *constraint.Set, error) {
	d, err := dtd.Parse(s.DTD)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", s.Key, err)
	}
	set, err := constraint.ParseSet(s.Constraints)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", s.Key, err)
	}
	if err := set.Validate(d); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", s.Key, err)
	}
	return d, set, nil
}

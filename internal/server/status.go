package server

import (
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/buildinfo"
	"repro/internal/flight"
	"repro/internal/telemetry"
)

// StatusWindow is one rolling window's summary as /debug/checks
// reports it.
type StatusWindow struct {
	Label      string  `json:"label"`
	Count      int64   `json:"count"`
	Errors     int64   `json:"errors"`
	Slow       int64   `json:"slow"`
	Rate       float64 `json:"rate"`
	ErrorRatio float64 `json:"error_ratio"`
	P50US      int64   `json:"p50_us"`
	P90US      int64   `json:"p90_us"`
	P99US      int64   `json:"p99_us"`
	// BurnRate is the SLO error-budget burn rate; zero when no SLO is
	// configured.
	BurnRate float64 `json:"burn_rate"`
}

// StatusInflight is one in-flight check, joined with the latest live
// progress snapshot its solver published (all search fields zero when
// the check has not reached the solver yet).
type StatusInflight struct {
	RequestID string `json:"request_id"`
	// TraceID joins this row with the request's trace, exemplars, and
	// any flight bundle it ends up dumping.
	TraceID    string `json:"trace_id,omitempty"`
	SpecDigest string `json:"spec_digest,omitempty"`
	ElapsedMS  int64  `json:"elapsed_ms"`
	// Phase is the pipeline stage the check was last seen in ("lint",
	// "prover", "relative", ...); ScopeIndex/ScopeKey locate the scope
	// subproblem on the relative route.
	Phase      string `json:"phase,omitempty"`
	ScopeIndex int    `json:"scope_index,omitempty"`
	ScopeKey   string `json:"scope_key,omitempty"`
	// Nodes, LPCalls, Pivots, Restarts measure solver effort so far;
	// BoundLo/BoundHi are the incumbent document-size bounds at the
	// sampled node (BoundHi -1 while some variable is unbounded).
	Nodes    int   `json:"nodes,omitempty"`
	LPCalls  int   `json:"lp_calls,omitempty"`
	Pivots   int   `json:"pivots,omitempty"`
	Restarts int   `json:"restarts,omitempty"`
	BoundLo  int64 `json:"bound_lo,omitempty"`
	BoundHi  int64 `json:"bound_hi,omitempty"`
}

// Bounds renders the incumbent bound interval for the status page,
// spelling the still-unbounded upper bound as ∞.
func (si StatusInflight) Bounds() string {
	if si.BoundHi < 0 {
		return fmt.Sprintf("[%d, ∞)", si.BoundLo)
	}
	return fmt.Sprintf("[%d, %d]", si.BoundLo, si.BoundHi)
}

// PhaseSummary condenses an audited check's span tree into the three
// pipeline phases operators scan the recent-checks table for. Each
// field sums every matching span (a relative check solves many ILPs),
// in microseconds; zero means the phase did not run.
type PhaseSummary struct {
	LintUS   int64 `json:"lint_us,omitempty"`
	ProverUS int64 `json:"prover_us,omitempty"`
	ILPUS    int64 `json:"ilp_us,omitempty"`
}

// RecentCheck is one recent-ring row: the audit event plus its phase
// summary and, when the flight recorder dumped this request, the
// bundle filename in the quarantine directory — the status page's link
// from a slow or errored row to its correlated capture.
type RecentCheck struct {
	audit.Event
	PhaseSummary PhaseSummary `json:"phase_summary"`
	Bundle       string       `json:"bundle,omitempty"`
}

// summarizePhases folds the audit event's slash-joined span paths into
// a PhaseSummary by matching the well-known span names at any depth.
func summarizePhases(phases []audit.Phase) PhaseSummary {
	var ps PhaseSummary
	atSpan := func(path, name string) bool {
		return path == name || strings.HasSuffix(path, "/"+name)
	}
	for _, p := range phases {
		switch {
		case atSpan(p.Path, "speclint.run"):
			ps.LintUS += p.DurationUS
		case atSpan(p.Path, "prover"):
			ps.ProverUS += p.DurationUS
		case atSpan(p.Path, "ilp.solve"):
			ps.ILPUS += p.DurationUS
		}
	}
	return ps
}

// Status is the /debug/checks response body: everything the HTML
// status page renders, as JSON.
type Status struct {
	Build         buildinfo.Info    `json:"build"`
	UptimeSeconds int64             `json:"uptime_seconds"`
	AuditEvents   uint64            `json:"audit_events"`
	SLOTargetMS   int64             `json:"slo_target_ms,omitempty"`
	SLOObjective  float64           `json:"slo_objective,omitempty"`
	Inflight      []StatusInflight  `json:"inflight"`
	Windows       []StatusWindow    `json:"windows"`
	Recent        []RecentCheck     `json:"recent"`
	HotDigests    []audit.HotDigest `json:"hot_digests"`
	// FlightBundles lists the most recent flight-recorder dumps
	// (newest first); each row names the .json/.spec pair in the
	// quarantine directory and the trace ID to correlate by.
	FlightBundles []flight.Bundle `json:"flight_bundles"`
}

// status assembles the live snapshot both debug endpoints render.
func (s *Server) status() Status {
	st := Status{
		Build:         buildinfo.Get(),
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
		AuditEvents:   s.audit.Events(),
		Recent:        []RecentCheck{},
		HotDigests:    s.audit.Hot(16),
	}
	st.FlightBundles = s.flight.Bundles(16)
	if st.FlightBundles == nil {
		st.FlightBundles = []flight.Bundle{}
	}
	// Join recent rows to their flight bundles by trace ID, so a slow
	// or errored check on the page points straight at its capture.
	bundleByTrace := make(map[string]string, len(st.FlightBundles))
	for _, b := range st.FlightBundles {
		if _, ok := bundleByTrace[b.TraceID]; !ok {
			bundleByTrace[b.TraceID] = b.File
		}
	}
	for _, ev := range s.audit.Recent(16) {
		st.Recent = append(st.Recent, RecentCheck{
			Event:        ev,
			PhaseSummary: summarizePhases(ev.Phases),
			Bundle:       bundleByTrace[ev.TraceID],
		})
	}
	if st.HotDigests == nil {
		st.HotDigests = []audit.HotDigest{}
	}
	if s.cfg.SLOTarget > 0 {
		st.SLOTargetMS = s.cfg.SLOTarget.Milliseconds()
		st.SLOObjective = s.cfg.SLOObjective
	}
	for _, w := range telemetry.Windows {
		ws := s.rolling.Window(w.D)
		sw := StatusWindow{
			Label:      w.Label,
			Count:      ws.Count,
			Errors:     ws.Errors,
			Slow:       ws.Slow,
			Rate:       ws.Rate(),
			ErrorRatio: ws.ErrorRatio(),
			P50US:      ws.P50,
			P90US:      ws.P90,
			P99US:      ws.P99,
		}
		if s.cfg.SLOTarget > 0 {
			sw.BurnRate = ws.BurnRate(s.cfg.SLOObjective)
		}
		st.Windows = append(st.Windows, sw)
	}
	st.Inflight = s.inflightRows()
	return st
}

// inflightRows snapshots the running checks: each request's record
// joined with the latest progress snapshot the solver published
// (Snapshot never blocks the search). Rows are sorted longest-running
// first.
func (s *Server) inflightRows() []StatusInflight {
	s.runningMu.Lock()
	now := time.Now()
	rows := make([]StatusInflight, 0, len(s.running))
	for _, rc := range s.running {
		row := StatusInflight{
			RequestID:  rc.RequestID,
			TraceID:    rc.TraceID,
			SpecDigest: rc.SpecDigest,
			ElapsedMS:  now.Sub(rc.start).Milliseconds(),
		}
		if pr, ok := rc.pub.Snapshot(); ok {
			row.Phase = pr.Phase
			row.ScopeIndex = pr.ScopeIndex
			row.ScopeKey = pr.ScopeKey
			row.Nodes = pr.Nodes
			row.LPCalls = pr.LPCalls
			row.Pivots = pr.Pivots
			row.Restarts = pr.Restarts
			row.BoundLo = pr.BoundLo
			row.BoundHi = pr.BoundHi
		}
		rows = append(rows, row)
	}
	s.runningMu.Unlock()
	sort.Slice(rows, func(i, j int) bool {
		return rows[i].ElapsedMS > rows[j].ElapsedMS
	})
	return rows
}

// InflightResponse is the /debug/inflight body: just the live rows,
// cheap enough to poll at a high rate while a check runs.
type InflightResponse struct {
	Inflight []StatusInflight `json:"inflight"`
}

// handleInflight serves the live progress of running checks.
func (s *Server) handleInflight(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, InflightResponse{Inflight: s.inflightRows()})
}

// handleChecks serves the status snapshot as JSON.
func (s *Server) handleChecks(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.status())
}

// handleStatus serves the human-readable status page.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := statusTmpl.Execute(w, s.status()); err != nil {
		s.log.Error("status render failed", "err", err)
	}
}

var statusTmpl = template.Must(template.New("status").Parse(`<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>xmlconsistd status</title>
<style>
body { font-family: monospace; margin: 2em; background: #fafafa; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.1em; margin-top: 1.5em; }
table { border-collapse: collapse; margin: 0.5em 0; }
th, td { border: 1px solid #ccc; padding: 0.25em 0.75em; text-align: left; }
th { background: #eee; }
.muted { color: #888; }
</style>
</head>
<body>
<h1>xmlconsistd</h1>
<p>
version {{.Build.Version}} ({{.Build.Revision}}, {{.Build.GoVersion}})
&middot; up {{.UptimeSeconds}}s
&middot; {{.AuditEvents}} checks audited
{{if .SLOTargetMS}}&middot; SLO: {{.SLOObjective}} under {{.SLOTargetMS}}ms{{end}}
</p>

<h2>Rolling windows</h2>
<table>
<tr><th>window</th><th>checks</th><th>errors</th><th>slow</th><th>rate/s</th><th>p50 &micro;s</th><th>p90 &micro;s</th><th>p99 &micro;s</th>{{if .SLOTargetMS}}<th>burn rate</th>{{end}}</tr>
{{range .Windows}}
<tr><td>{{.Label}}</td><td>{{.Count}}</td><td>{{.Errors}}</td><td>{{.Slow}}</td><td>{{printf "%.3f" .Rate}}</td><td>{{.P50US}}</td><td>{{.P90US}}</td><td>{{.P99US}}</td>{{if $.SLOTargetMS}}<td>{{printf "%.2f" .BurnRate}}</td>{{end}}</tr>
{{end}}
</table>

<h2>In flight ({{len .Inflight}})</h2>
{{if .Inflight}}
<table>
<tr><th>request</th><th>trace</th><th>spec digest</th><th>running ms</th><th>phase</th><th>scope</th><th>nodes</th><th>pivots</th><th>restarts</th><th>bounds</th></tr>
{{range .Inflight}}
<tr><td>{{.RequestID}}</td><td>{{.TraceID}}</td><td>{{.SpecDigest}}</td><td>{{.ElapsedMS}}</td><td>{{.Phase}}</td><td>{{if .ScopeKey}}#{{.ScopeIndex}} {{.ScopeKey}}{{end}}</td><td>{{.Nodes}}</td><td>{{.Pivots}}</td><td>{{.Restarts}}</td><td>{{.Bounds}}</td></tr>
{{end}}
</table>
<p class="muted">live solver progress, sampled lock-free; also at <a href="/debug/inflight">/debug/inflight</a></p>
{{else}}<p class="muted">none</p>{{end}}

<h2>Hot spec digests</h2>
{{if .HotDigests}}
<table>
<tr><th>spec digest</th><th>score</th><th>last verdict</th></tr>
{{range .HotDigests}}
<tr><td>{{.Digest}}</td><td>{{printf "%.1f" .Score}}</td><td>{{.LastVerdict}}</td></tr>
{{end}}
</table>
{{else}}<p class="muted">none yet</p>{{end}}

<h2>Recent checks</h2>
{{if .Recent}}
<table>
<tr><th>time</th><th>request</th><th>trace</th><th>spec digest</th><th>verdict</th><th>certificate</th><th>status</th><th>abort</th><th>&micro;s</th><th>lint/prover/ilp &micro;s</th><th>bundle</th></tr>
{{range .Recent}}
<tr><td>{{.Time}}</td><td>{{.RequestID}}</td><td>{{.TraceID}}</td><td>{{.SpecDigest}}</td><td>{{.Verdict}}</td><td>{{.CertificateKind}}</td><td>{{.Status}}</td><td>{{.Abort}}</td><td>{{.ElapsedUS}}</td><td>{{.PhaseSummary.LintUS}}/{{.PhaseSummary.ProverUS}}/{{.PhaseSummary.ILPUS}}</td><td>{{.Bundle}}</td></tr>
{{end}}
</table>
{{else}}<p class="muted">none yet</p>{{end}}

<h2>Flight bundles</h2>
{{if .FlightBundles}}
<table>
<tr><th>time</th><th>file</th><th>trigger</th><th>trace</th><th>request</th><th>spec digest</th><th>bytes</th></tr>
{{range .FlightBundles}}
<tr><td>{{.Time}}</td><td>{{.File}}</td><td>{{.Trigger}}</td><td>{{.TraceID}}</td><td>{{.RequestID}}</td><td>{{.SpecDigest}}</td><td>{{.Bytes}}</td></tr>
{{end}}
</table>
<p class="muted">correlated trace+spec captures in the quarantine directory; grep the audit log for the trace id</p>
{{else}}<p class="muted">none yet</p>{{end}}

<p class="muted">machine-readable: <a href="/debug/checks">/debug/checks</a> &middot; <a href="/metrics">/metrics</a></p>
</body>
</html>
`))

package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime/debug"
	"time"

	"repro/internal/audit"
	"repro/internal/obs"
)

// ctxKey is the private context-key type for request-scoped values.
type ctxKey int

const (
	requestIDKey ctxKey = iota
	traceIDKey
	sloKey
)

// sloMark is how a spec route asks the middleware to feed the rolling
// SLO windows: the route sets observe (and failed, for an aborted
// check) once the request counts as a check, and the middleware
// observes the latency the client saw — from its own entry until the
// response is written — rather than the decision time alone. start is
// that entry, which the slow-check accounting measures from too.
type sloMark struct {
	observe, failed bool
	start           time.Time
}

// markSLO flags the request as one rolling-window observation. Outside
// the middleware (no mark in the context) it does nothing.
func markSLO(ctx context.Context, failed bool) {
	if m, ok := ctx.Value(sloKey).(*sloMark); ok {
		m.observe, m.failed = true, failed
	}
}

// entryTime returns when the middleware took the request in, or
// fallback outside the middleware (direct handler tests).
func entryTime(ctx context.Context, fallback time.Time) time.Time {
	if m, ok := ctx.Value(sloKey).(*sloMark); ok {
		return m.start
	}
	return fallback
}

// requestID returns the ID the middleware assigned, or "-" outside a
// request context (direct handler tests).
func requestID(ctx context.Context) string {
	if id, ok := ctx.Value(requestIDKey).(string); ok {
		return id
	}
	return "-"
}

// traceID returns the W3C trace ID the middleware parsed or
// generated, or "" outside a request context.
func traceID(ctx context.Context) string {
	if id, ok := ctx.Value(traceIDKey).(string); ok {
		return id
	}
	return ""
}

// statusRecorder captures the response status for the log line.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// middleware wraps the route table with the per-request machinery:
// request-ID assignment (echoed in X-Request-Id and attached to the
// check's span tree), W3C trace-context propagation (an inbound
// traceparent is parsed — or a fresh trace ID generated — and echoed
// back with this server's span ID), a structured log line, latency
// accounting with a trace exemplar, the rolling SLO windows for the
// requests the spec routes mark, and panic recovery into a 500 plus a
// counter and a flight bundle.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("%08x", s.reqSeq.Add(1))
		w.Header().Set("X-Request-Id", id)

		// Join the caller's trace when the header validates; start a
		// fresh trace otherwise, without parsing an absent header. The
		// response always echoes the trace with this request's own span
		// ID as the parent.
		var tid string
		if h := r.Header.Get("traceparent"); h != "" {
			if id, _, err := obs.ParseTraceparent(h); err == nil {
				tid = id
			}
		}
		if tid == "" {
			tid = obs.NewTraceID()
		}
		spanID := obs.NewSpanID()
		w.Header().Set("traceparent", obs.FormatTraceparent(tid, spanID))

		ctx := context.WithValue(r.Context(), requestIDKey, id)
		ctx = context.WithValue(ctx, traceIDKey, tid)
		start := time.Now()
		slo := &sloMark{start: start}
		ctx = context.WithValue(ctx, sloKey, slo)
		r = r.WithContext(ctx)
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}

		defer func() {
			if p := recover(); p != nil {
				s.reg.Add("server.panics", 1)
				s.log.Error("handler panic",
					"request_id", id, "trace_id", tid, "path", r.URL.Path,
					"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
				// Best-effort: the handler may have written already.
				sr.WriteHeader(http.StatusInternalServerError)
				fmt.Fprintf(sr, `{"request_id":%q,"trace_id":%q,"error":"internal server error","kind":"internal"}`+"\n", id, tid)
				// The handler never reached its own flight observation;
				// capture the panic with at least a goroutine profile.
				rq := request{op: op{name: r.URL.Path}, latency: time.Since(start), Event: audit.Event{
					RequestID: id, TraceID: tid, Status: http.StatusInternalServerError, Abort: "panic"}}
				s.flight.Observe(rq.flightRequest())
			}
			elapsed := time.Since(start)
			if slo.observe {
				s.rolling.Observe(elapsed.Microseconds(), slo.failed)
			}
			s.reg.Add("server.requests", 1)
			s.reg.Observe("server.request_us", elapsed.Microseconds())
			s.reg.Exemplar("server.request_us", elapsed.Microseconds(), tid)
			s.log.Info("request",
				"request_id", id,
				"trace_id", tid,
				"method", r.Method,
				"path", r.URL.Path,
				"status", sr.status,
				"elapsed", elapsed,
				"remote", r.RemoteAddr)
		}()

		next.ServeHTTP(sr, r)
	})
}

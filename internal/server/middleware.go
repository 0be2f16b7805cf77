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
)

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
// accounting with a trace exemplar, and panic recovery into a 500
// plus a counter and a flight bundle.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("%08x", s.reqSeq.Add(1))
		w.Header().Set("X-Request-Id", id)

		// Join the caller's trace when the header validates; start a
		// fresh trace otherwise. The response always echoes the trace
		// with this request's own span ID as the parent.
		tid, _, err := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if err != nil {
			tid = obs.NewTraceID()
		}
		spanID := obs.NewSpanID()
		w.Header().Set("traceparent", obs.FormatTraceparent(tid, spanID))

		ctx := context.WithValue(r.Context(), requestIDKey, id)
		ctx = context.WithValue(ctx, traceIDKey, tid)
		r = r.WithContext(ctx)
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()

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
				rq := request{op: op{name: r.URL.Path}, elapsed: time.Since(start), Event: audit.Event{
					RequestID: id, TraceID: tid, Status: http.StatusInternalServerError, Abort: "panic"}}
				s.flight.Observe(rq.flightRequest())
			}
			elapsed := time.Since(start)
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

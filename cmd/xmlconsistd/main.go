// Command xmlconsistd serves the consistency checker over HTTP with
// live telemetry:
//
//	xmlconsistd -addr :8080 -deadline 30s -max-inflight 8 -trace-dir traces/ \
//	  -audit-log audit.jsonl -slow-threshold 2s -quarantine-dir slow/ \
//	  -slo-target-ms 250 -slo-objective 0.99 -log-format json
//
// Endpoints: POST /check (specification in, verdict + certificate +
// stats out), GET /metrics (Prometheus text exposition), GET /healthz,
// GET /debug/status (HTML status page), GET /debug/checks (its JSON
// twin), and optional /debug/pprof (-pprof). SIGINT/SIGTERM trigger a
// graceful shutdown that lets in-flight checks finish (bounded by
// -deadline) before the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/audit"
	"repro/internal/cliutil"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment abstracted so tests can drive the
// daemon in-process. It returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xmlconsistd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:8080", "listen address (host:port; :0 picks a free port)")
	deadline := fs.Duration("deadline", 30*time.Second, "per-check deadline (0 disables)")
	maxInflight := fs.Int("max-inflight", 0, "maximum concurrent checks, excess rejected with 429 (0: unlimited)")
	// -parallel is accepted and ignored, so scripts that still pass it
	// keep starting the daemon.
	fs.Int("parallel", 0, "deprecated and ignored: scope problems are solved sequentially")
	traceDir := fs.String("trace-dir", "", "directory for per-request Chrome trace files (empty: no traces)")
	pprofFlag := fs.Bool("pprof", false, "mount /debug/pprof")
	logFormat := fs.String("log-format", "text", "structured log format: text or json")
	auditLog := fs.String("audit-log", "", "append-only JSONL audit log, one event per check (empty: in-memory only)")
	auditMaxBytes := fs.Int64("audit-max-bytes", 0, "rotate the audit log past this size (0: 8 MiB)")
	auditSample := fs.Int("audit-sample", 1, "write every Nth audit event to the file (status page sees all)")
	slowThreshold := fs.Duration("slow-threshold", 0, "flight-record checks slower than this (0: no slow trigger)")
	quarantineDir := fs.String("quarantine-dir", "", "directory for flight bundles: correlated trace+spec captures of slow, errored, aborted, or sampled-inconsistent checks")
	flightSample := fs.Int("flight-sample-inconsistent", 0, "flight-record every Nth inconsistent verdict (0: off)")
	flightMaxBytes := fs.Int64("flight-max-bytes", 0, "size cap per flight bundle .json (0: 4 MiB)")
	sloTargetMS := fs.Int64("slo-target-ms", 0, "SLO latency target in milliseconds (0: no SLO gauges)")
	sloObjective := fs.Float64("slo-objective", 0.99, "SLO objective: fraction of checks under target")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return 3
	}
	if *version {
		fmt.Fprintln(stdout, cliutil.VersionString("xmlconsistd"))
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "xmlconsistd: unexpected arguments:", fs.Args())
		return 3
	}
	for _, dir := range []string{*traceDir, *quarantineDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(stderr, "xmlconsistd:", err)
			return 3
		}
	}

	// Every log line of the process — request lines, slow-check
	// warnings, shutdown notices — flows through this one handler, so
	// -log-format json turns the whole daemon machine-parsable.
	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(stderr, nil)
	default:
		fmt.Fprintf(stderr, "xmlconsistd: unknown -log-format %q (want text or json)\n", *logFormat)
		return 3
	}
	logger := slog.New(handler)

	al, err := audit.New(audit.Options{
		Path:     *auditLog,
		MaxBytes: *auditMaxBytes,
		Sample:   *auditSample,
	})
	if err != nil {
		fmt.Fprintln(stderr, "xmlconsistd:", err)
		return 3
	}
	defer func() {
		if err := al.Close(); err != nil {
			logger.Error("audit log close", "err", err)
		}
	}()

	srv := server.NewServer(server.Config{
		Registry:                 telemetry.NewRegistry(""),
		Deadline:                 *deadline,
		MaxInflight:              *maxInflight,
		TraceDir:                 *traceDir,
		Logger:                   logger,
		Pprof:                    *pprofFlag,
		Audit:                    al,
		SlowThreshold:            *slowThreshold,
		QuarantineDir:            *quarantineDir,
		FlightSampleInconsistent: *flightSample,
		FlightMaxBundleBytes:     *flightMaxBytes,
		SLOTarget:                time.Duration(*sloTargetMS) * time.Millisecond,
		SLOObjective:             *sloObjective,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "xmlconsistd:", err)
		return 3
	}
	// Printed after the listener is live so scripts (and the smoke
	// test) can wait for this line, then scrape the bound address —
	// which matters with -addr :0.
	fmt.Fprintf(stdout, "xmlconsistd: listening on http://%s\n", ln.Addr())

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintln(stderr, "xmlconsistd:", err)
		return 1
	case <-ctx.Done():
	}

	logger.Info("shutting down", "reason", ctx.Err())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace(*deadline))
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(stderr, "xmlconsistd: shutdown:", err)
		return 1
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "xmlconsistd:", err)
		return 1
	}
	fmt.Fprintln(stdout, "xmlconsistd: bye")
	return 0
}

// shutdownGrace bounds how long a graceful shutdown waits for
// in-flight checks: slightly past the per-check deadline, or five
// seconds when checks are unbounded.
func shutdownGrace(deadline time.Duration) time.Duration {
	if deadline > 0 {
		return deadline + time.Second
	}
	return 5 * time.Second
}

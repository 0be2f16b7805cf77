GO ?= go

ANALYZERS := bin/analyzers

.PHONY: check build vet test race race-core determinism fmt bench lint bench-journal bench-watch serve-smoke prove-smoke perfbench

# The full pre-commit gate: formatting, vet (including the custom
# analyzers and the spec linter), build, the race-enabled test suite,
# the unabridged race pass over the solver core, the parallel
# determinism check, the end-to-end daemon and prover smoke tests, and
# the bench-regression sentinel over the committed journals, and a
# build of the benchmark module. -short keeps the long soak tests out;
# run `make test` for the unabridged suite.
check: fmt vet lint build perfbench race race-core determinism serve-smoke prove-smoke bench-watch

build:
	$(GO) build ./...

# perfbench vets and tests the benchmark module. perfbench/ is its own
# Go module (replace repro => ../) that compiles against the server's
# request/response types and the checker's options, and the root
# `go build ./...` never reaches it, so an API change that breaks the
# benchmark has to fail here rather than at benchmark time.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs the repository's own static analysis: the vettool passes
# from tools/analyzers (exhaustive Verdict switches, nil-safe obs use,
# certificate-attached verdicts, Prometheus metric-name conventions)
# over every package, then cmd/speclint over the shipped example specs.
# The geography spec is the known-inconsistent fixture, so exit 1 is
# its expected verdict there.
lint: $(ANALYZERS)
	$(GO) vet -vettool=$(abspath $(ANALYZERS)) ./...
	cd tools/analyzers && $(GO) test ./...
	$(GO) run ./cmd/speclint -dtd testdata/library.dtd -constraints testdata/library.keys
	$(GO) run ./cmd/speclint -dtd testdata/school.dtd -constraints testdata/school.keys
	$(GO) run ./cmd/speclint -dtd testdata/geography.dtd -constraints testdata/geography.keys; \
		status=$$?; [ $$status -eq 1 ] || { echo "geography: expected exit 1, got $$status"; exit 1; }

$(ANALYZERS): tools/analyzers/go.mod $(wildcard tools/analyzers/*.go)
	cd tools/analyzers && $(GO) build -o $(abspath $(ANALYZERS)) .

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# race-core runs the solver core's full (non-short) test suites under
# the race detector: the parallel scope fan-out and the pooled int64
# simplex share recorders, ledgers, and buffer pools across goroutines,
# and these two packages hold the differential harnesses that exercise
# every one of those paths.
race-core:
	$(GO) test -race ./internal/ilp ./internal/consistency

# determinism pins the parallel fan-out's contract: on the same spec,
# a parallel run's JSON report must byte-match the sequential one —
# even confined to a single CPU, where the pool's scheduling is at its
# most adversarial.
determinism:
	$(GO) build -o bin/xmlconsist ./cmd/xmlconsist
	@GOMAXPROCS=1 ./bin/xmlconsist -json -dtd testdata/library.dtd -constraints testdata/library.keys > bin/det-seq.json
	@GOMAXPROCS=1 ./bin/xmlconsist -json -parallel 8 -dtd testdata/library.dtd -constraints testdata/library.keys > bin/det-par.json
	@cmp bin/det-seq.json bin/det-par.json || { echo "determinism: parallel JSON output diverged from sequential"; exit 1; }
	@GOMAXPROCS=1 ./bin/xmlconsist -json -dtd testdata/geography.dtd -constraints testdata/geography.keys > bin/det-seq.json; [ $$? -eq 1 ]
	@GOMAXPROCS=1 ./bin/xmlconsist -json -parallel 8 -dtd testdata/geography.dtd -constraints testdata/geography.keys > bin/det-par.json; [ $$? -eq 1 ]
	@cmp bin/det-seq.json bin/det-par.json || { echo "determinism: parallel JSON output diverged from sequential (geography)"; exit 1; }
	@rm -f bin/det-seq.json bin/det-par.json
	@echo "determinism: parallel output byte-matches sequential"

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# bench runs the root benchmark families, then the compile and
# certificate-verification microbenchmarks: one encode per family
# (BenchmarkEncode) and one verified cache hit's re-proof per
# certificate form (BenchmarkVerify).
bench:
	$(GO) test -bench=. -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkEncode|BenchmarkVerify' -benchmem ./internal/cardinality ./internal/certificate

# serve-smoke builds xmlconsistd, starts it on a random port, and
# drives the whole serving surface end to end: /healthz, /check with a
# consistent and an inconsistent spec (asserting spec digests and the
# X-Request-Id echo), a 1ms-deadline check that must abort with a
# deadline error, the /debug status pages, a line-by-line validation
# of the /metrics exposition (including rolling-window and SLO
# burn-rate gauges), a third identical check answered from the verdict
# cache — then SIGTERMs the daemon, requires a clean exit,
# parses the audit log against the responses, and re-runs with a
# 1ns slow threshold to require exactly one quarantined trace+spec
# pair.
serve-smoke:
	$(GO) build -o bin/xmlconsistd ./cmd/xmlconsistd
	$(GO) run ./tools/servesmoke -bin bin/xmlconsistd

# prove-smoke drives the explanation surface end to end over the two
# known-inconsistent fixtures (the Figure 1 geography spec and the §1
# school-extended regular spec): xmlconsist -explain must refute each
# with a minimal conflicting subset, rule derivation, and repair
# hints, and the smoke then re-runs Explain in process, replays the
# derivation under prover.Replay, and re-verifies the attached
# certificate — solver-free — with certificate.Verify.
prove-smoke:
	$(GO) build -o bin/xmlconsist ./cmd/xmlconsist
	$(GO) run ./tools/provesmoke -bin bin/xmlconsist

# bench-journal appends one timed run of the core benchmark families
# to the day's BENCH_<date>.json (schema repro-bench/v1), recording
# ns/op, allocs/op, certificate sizes, and per-phase span durations
# alongside the toolchain and VCS revision.
bench-journal:
	$(GO) run ./cmd/benchjournal

# bench-watch compares the latest journaled run against the best prior
# measurement and fails on a >75% ns/op regression or a >10% allocs/op
# regression; measurements under the 50µs noise floor are exempt from
# the relative ns/op comparison (machine drift dwarfs them) but still
# face the absolute gates. The allocs gate pins the observer-free
# fig2/library check at 689 allocs/op — the attach-only introspection
# invariant: a detached publisher and a nil ledger must cost nothing.
# The ns gates bound the Figure 3/4 hard families outright; the
# lp=fast gate is the int64 fast-path sentinel — the same instance on
# the exact big.Rat tableau takes well over a second, so losing the
# fast path cannot pass it.
bench-watch:
	$(GO) run ./cmd/benchwatch -threshold 0.75 -ns-floor 50000 \
		-max-allocs 'fig2/library=689' \
		-max-ns 'fig3/unary-n=4=15000000' \
		-max-ns 'fig4/hierarchical-levels=4=1500000' \
		-max-ns 'fig4/hierarchical-levels=6/seq=3000000' \
		-max-ns 'fig3/unary-n=6/lp=fast=1000000000'

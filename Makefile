GO ?= go

ANALYZERS := bin/analyzers

.PHONY: check build vet test race race-core determinism fmt bench lint gates serve-smoke prove-smoke perfbench

# The full pre-commit gate: formatting, vet (including the custom
# analyzers and the spec linter), build, a build of the benchmark
# module, the race-enabled test suite, the unabridged race pass over
# the solver core, the run-to-run determinism check, the end-to-end
# daemon and prover smoke tests, and the live performance gates.
# -short keeps the long soak tests out; run `make test` for the
# unabridged suite.
check: fmt vet lint build perfbench race race-core determinism serve-smoke prove-smoke gates

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
# the race detector: concurrent checks share recorders, progress
# publishers, and the int64 simplex's buffer pools, and these two
# packages hold the differential harnesses that exercise every one of
# those paths.
race-core:
	$(GO) test -race ./internal/ilp ./internal/consistency

# determinism pins run-to-run stability of the CLI's JSON report: the
# same spec checked on one CPU and on two must produce the same bytes,
# for the consistent library spec and the inconsistent geography spec
# (exit 1). The report carries no timings, so any difference is a
# nondeterministic decision, certificate, or witness.
determinism:
	$(GO) build -o bin/xmlconsist ./cmd/xmlconsist
	@for spec in library:0 geography:1; do \
		name=$${spec%:*}; want=$${spec#*:}; \
		for n in 1 2; do \
			GOMAXPROCS=$$n ./bin/xmlconsist -json -dtd testdata/$$name.dtd -constraints testdata/$$name.keys > bin/det-$$n.json; \
			status=$$?; [ $$status -eq $$want ] || { echo "determinism: $$name exit $$status under GOMAXPROCS=$$n, want $$want"; exit 1; }; \
		done; \
		cmp bin/det-1.json bin/det-2.json || { echo "determinism: $$name JSON output differs between GOMAXPROCS=1 and 2"; exit 1; }; \
	done
	@rm -f bin/det-1.json bin/det-2.json
	@echo "determinism: JSON output byte-matches across GOMAXPROCS=1 and 2"

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# bench runs the root benchmark families (BenchmarkParse among them),
# then one verified /check hit through the daemon's handler
# (BenchmarkServeCheckHit), then the compile and
# certificate-verification microbenchmarks: one encode per family
# (BenchmarkEncode) and one verified cache hit's re-proof per
# certificate form (BenchmarkVerify), then one explanation per kind of
# the explain workload (BenchmarkExplain).
bench:
	$(GO) test -bench=. -benchmem .
	$(GO) test -run '^$$' -bench BenchmarkServeCheckHit -benchmem ./internal/server
	$(GO) test -run '^$$' -bench 'BenchmarkEncode|BenchmarkVerify' -benchmem ./internal/cardinality ./internal/certificate
	$(GO) test -run '^$$' -bench BenchmarkExplain -benchmem ./internal/consistency

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

# gates runs the performance gates on the code under test, without the
# race detector (whose instrumentation shifts allocation counts and
# slows checks past any ceiling): the allocation pins on the
# obs-disabled library check, the parse of the paper's specs and of
# one spec per hard serving family, one encode per family, one
# verified cache hit's scope vectors, one replayed prover certificate,
# one explanation of each prover-heavy explain kind, one check that
# builds and verifies its witness, one /check miss and one verified
# /check hit through the daemon's handler, and one root-decided and
# one branching ILP solve (TestLibraryCheckAllocs, TestParseAllocs,
# TestEncodeAllocs, TestVerifyScopeVectorsAllocs,
# TestVerifyProverAllocs, TestExplainAllocs, TestWitnessCheckAllocs,
# TestServeCheckAllocs, TestServeCheckHitAllocs, TestSolveAllocs),
# the best-of-k wall-time ceilings on the hard Figure 3/4 instances
# (TestCheckCeilings), and the deterministic int64 fast-path sentinel
# (TestCeilingFastPathSentinel).
gates:
	$(GO) test -count=1 -run 'Allocs$$|Ceiling' . ./internal/cardinality ./internal/certificate ./internal/consistency ./internal/ilp ./internal/server

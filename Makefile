# Convenience targets for the dcnflow repository. The CI workflow runs the
# same commands; see .github/workflows/ci.yml.

GO ?= go

.PHONY: build test test-race-online vet fmt inline-check bench-smoke dcnbench-smoke examples scenarios sweep-smoke serve-smoke decisions-smoke doccheck profile

build:
	$(GO) build ./...

# examples builds every example program; the root test suite additionally
# runs them (TestExamplesBuildAndRun).
examples:
	$(GO) build ./examples/...

# scenarios solves every JSON scenario spec under examples/scenarios/
# through a representative registered-solver set (exact is excluded: the
# specs are larger than its enumeration bound).
scenarios:
	@for f in examples/scenarios/*.json; do \
		echo "== $$f"; \
		$(GO) run ./cmd/dcnflow run $$f -solver dcfsr,sp-mcf,greedy-online,rolling-online || exit 1; \
	done

# sweep-smoke runs the tiny all-solver sweep grid through the CLI — every
# registered solver family on a 32-cell grid, JSONL discarded, aggregate
# printed. CI runs the same command.
sweep-smoke:
	$(GO) run ./cmd/dcnflow sweep examples/sweeps/smoke.json -workers 4

# serve-smoke boots `dcnflow serve` as a real subprocess, requires an
# oversized topology spec to be refused with a 400, fires a 3-request
# batch through the Go client, asserts every energy is bit-identical to
# the engine solve `dcnflow run` prints, and requires a graceful SIGTERM
# shutdown. CI runs the same command.
serve-smoke:
	$(GO) run ./cmd/servesmoke

# decisions-smoke exercises the decision-tracing subsystem end to end:
# record a small rolling run's decision log, counterfactually replay its
# top-2 alternatives requiring nonzero regret rows, then run the O2
# decision-regret experiment requiring at least one demonstrated decision
# where rolling beats the forced greedy path on weighted fitness. CI runs
# the same commands.
decisions-smoke:
	$(GO) run ./cmd/dcnflow decisions -mode record -n 24 -seed 5 -iters 25 -out /tmp/dcnflow-decisions.jsonl
	$(GO) run ./cmd/dcnflow decisions -mode replay -file /tmp/dcnflow-decisions.jsonl -topk 2 -max-decisions 3 -require-regret
	$(GO) run ./cmd/dcnflow decisions -mode score -n 24 -seed 5 -iters 25 -max-decisions 3 -require-win

# doccheck fails when an exported symbol of the public facade (root
# package) or of any internal package is missing a doc comment, or when a
# registered solver name is absent from README.md, DESIGN.md, `dcnflow run
# -h` or `dcnflow sweep -h`.
DOCCHECK_PKGS := $(sort $(dir $(wildcard internal/*/*.go)))
doccheck:
	$(GO) run ./cmd/doccheck
	for d in $(DOCCHECK_PKGS); do $(GO) run ./cmd/doccheck -dir $$d -solvers=false || exit 1; done

# profile runs the smoke sweep under the new pprof hooks so perf work can
# start from a flame graph: `make profile` then
# `go tool pprof /tmp/dcnflow-cpu.pprof`. The same -cpuprofile/-memprofile
# flags work on `dcnflow run` and arbitrary sweeps.
profile:
	$(GO) run ./cmd/dcnflow sweep examples/sweeps/smoke.json -workers 4 -cpuprofile /tmp/dcnflow-cpu.pprof -memprofile /tmp/dcnflow-mem.pprof
	@echo "profiles: /tmp/dcnflow-cpu.pprof /tmp/dcnflow-mem.pprof"

test:
	$(GO) test ./...

# test-race-online runs every test of the packages with cross-goroutine
# state (the online schedulers, the decision tracing they emit, the
# concurrent relaxation fan-out they drive, the solver pools, the
# compiled-graph scratch pools, the intra-solve parallel oracle, the
# incremental delta-solve and renumbering suites, and the sweep worker
# pool) under the race detector, once each, plus the root-package
# conformance corpus, sweep determinism tests, the intra-solve worker
# determinism suite, the golden-output suites (whose dcfsr and
# rolling-online rows run the interval fan-out, full and delta, at
# parallelism 1, 2 and 7 through a pooled Engine and direct registry
# solves) and the shared-Engine concurrency tests (cache LRU, builds
# outside the cache lock, pooled scratch, batch pool, serve handler —
# including the racing-client and batch determinism, drain-under-load,
# token-bucket admission and client-retry suites), plus the serve
# subcommand end to end; CI runs the same job.
test-race-online:
	$(GO) test -race ./internal/online/... ./internal/decision/... ./internal/core/... ./internal/mcfsolve/... ./internal/sweep/... ./internal/graph/...
	$(GO) test -race -run 'TestConformance|TestSweep|TestEngine|TestServe|TestIntraSolve|TestAdmission|TestClient|TestPriorityRank|TestParseRetryAfter|TestGolden' .
	$(GO) test -race -run TestServeCommand ./cmd/dcnflow

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# inline-check fails unless the compiler reports the Frank–Wolfe kernel's
# alpha=2 cost helpers (linVal and linDeriv in internal/mcfsolve) as
# inlinable: every phase loop calls one of them per edge, and a helper
# pushed over the inlining budget would turn each call into a function
# call. The diagnostics replay from the build cache, so the check is cheap
# after a build. CI runs the same command.
inline-check:
	@out=$$($(GO) build -gcflags=-m ./internal/mcfsolve 2>&1) || { echo "$$out"; exit 1; }; \
	for f in linVal linDeriv; do \
		echo "$$out" | grep -Eq ": can inline $$f( |$$)" || { echo "inline-check: mcfsolve.$$f is not inlinable"; exit 1; }; \
	done; \
	echo "inline-check: mcfsolve.linVal and mcfsolve.linDeriv are inlinable"

# bench-smoke runs every benchmark once — a compile-and-run sanity pass.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# dcnbench-smoke runs the repository benchmark (bench/, see BENCHMARK.json)
# briefly: all four workloads for 3 s each, exiting non-zero unless every
# output check passes, then traced paper-k8 and large-k32 runs, whose layer
# replays call the graph and solver layers directly. large-k32's replay
# requires bit-equal Frank–Wolfe objectives at 1 and 2 oracle workers on a
# 9,472-node fat-tree, which runs the goal-directed oracle search in the
# parallel sweep.
dcnbench-smoke:
	bash bench/run.sh -seed 1 -seconds 3
	bash bench/run.sh -workload paper-k8 -seed 1 -seconds 2 -trace 1
	bash bench/run.sh -workload large-k32 -seed 1 -seconds 2 -trace 1

# Verification entry points for crossbfs. `make verify` is the gate
# the repo's CI-equivalent runs: the gofmt check, vet, the project's
# own analyzers, the unit suite, the race detector over the concurrent
# core, the trace smoke, the sharded fault-injection chaos suite, the
# serving and metrics smokes (bfsd + bfsload end to end), and vet plus
# tests of the perfbench module.

GO ?= go

.PHONY: all build test lint lint-json race trace-smoke chaos serve-smoke metrics-smoke perfbench bench-report verify fuzz fuzz-faults

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint fails when gofmt would reformat any tracked .go file (tracked,
# so build output such as .bench_build/ is never walked), then runs go
# vet plus crossbfslint, the codebase-specific analyzer suite
# (sharedwrite, atomicpair, indexarith, grainloop, ctxcheck, hotalloc,
# obsdiscipline, faulterr). See internal/lint and LINTING.md.
lint:
	@unformatted="$$(git ls-files -z '*.go' | xargs -0 "$$($(GO) env GOROOT)/bin/gofmt" -l)"; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/crossbfslint ./...

# lint-json writes the same findings as a machine-readable report (CI
# uploads it as a workflow artifact). The exit code still gates: a
# report full of diagnostics fails the target just like `lint`.
LINTOUT ?= /tmp/crossbfslint.json
lint-json:
	$(GO) run ./cmd/crossbfslint -json ./... > $(LINTOUT)

# race exercises the concurrent kernels, the parallelGrains scheduler,
# and the cancellation/fault paths under the race detector. bfs and
# bitmap hold the goroutine-shared state; graph builds CSRs on
# several workers and the non-isolated mask that concurrent traversals
# of one graph share; rmat generates edge blocks on several workers;
# core drives the resilient executor's context plumbing.
race:
	$(GO) test -race ./internal/bfs/... ./internal/bitmap/... ./internal/core/... ./internal/graph/... ./internal/obs/... ./internal/rmat/... ./internal/serve/...

# trace-smoke is the end-to-end observability gate: export a Chrome
# trace from a real run (scale-14 keeps it a few seconds), then have
# tracecheck verify the schema and reprint the TD/BU switch pattern
# the per-level events reconstruct. See OBSERVABILITY.md.
TRACEOUT ?= /tmp/crossbfs-trace-smoke.json
trace-smoke:
	$(GO) run ./cmd/bfsrun -scale 14 -edgefactor 8 -plan cputd+gpucb -levels=false -trace $(TRACEOUT)
	$(GO) run ./cmd/tracecheck $(TRACEOUT)

# chaos is the fault-tolerance gate: the sharded chaos suite under
# the race detector (rank crashes, lag, dropped exchanges across the
# graph-family × rank-count matrix, each recovered run checked against
# the serial reference), then bfsrun's built-in injection smoke
# matrix. See DESIGN.md §4e.
chaos:
	$(GO) test -race -run ShardedChaos -count=1 ./internal/bfs/
	$(GO) run ./cmd/bfsrun -chaos

# serve-smoke is the end-to-end serving gate: boot bfsd on a loopback
# port with a scale-14 graph and an impossible SLO, drive a short
# mixed bfsload run, check the /metrics scrape for the typed counters,
# tracecheck the flight-recorder dump, and assert the injected breach
# captured exactly one incident bundle. See SERVING.md.
serve-smoke:
	GO="$(GO)" sh scripts/serve-smoke.sh

# metrics-smoke is the exposition-format gate: boot bfsd, push a
# little traffic, and validate the live /metrics page with expcheck
# (every family typed, HELP/TYPE metadata, family contiguity,
# histogram bucket discipline), plus the /healthz vs /readyz split.
# See OBSERVABILITY.md.
metrics-smoke:
	GO="$(GO)" sh scripts/metrics-smoke.sh

# bench-report runs the benchmark suite and snapshots the numbers to
# the next BENCH_<n>.json at the repo root, failing when any benchmark
# regressed more than BENCHTHRESHOLD vs the previous snapshot. It is
# deliberately NOT part of `verify` — benchmarks need a quiet machine
# and minutes of wall time; CI runs it as its own job.
# Set SERVINGREPORT to a bfsload -out file to fold its latency/QPS
# totals into the snapshot's "serving" section (gated like the rest).
BENCHTIME ?= 1x
BENCHTHRESHOLD ?= 0.35
SERVINGREPORT ?=
bench-report:
	$(GO) run ./cmd/benchreport -benchtime $(BENCHTIME) -threshold $(BENCHTHRESHOLD) $(if $(SERVINGREPORT),-serving $(SERVINGREPORT))

# perfbench is the benchmark's own module, so the root build, vet and
# test never compile it; verify covers it here because it imports obs
# and serve.
perfbench:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

verify: build lint test race trace-smoke chaos serve-smoke metrics-smoke perfbench

# fuzz gives the heuristic-switch fuzzer a short budget; CI-style
# smoke, not a soak. Override FUZZTIME for longer runs.
FUZZTIME ?= 15s
fuzz:
	$(GO) test ./internal/bfs/ -fuzz FuzzHeuristicSwitch -fuzztime $(FUZZTIME)

# fuzz-faults throws arbitrary fault schedules at the resilient
# executor: every outcome must be a validated traversal or a typed
# *fault.Error — never a panic, never a wrong parent tree.
fuzz-faults:
	$(GO) test ./internal/core/ -fuzz FuzzFaultSchedule -fuzztime $(FUZZTIME)

# Development targets. `make check` is the pre-PR gate: it must pass before
# any change ships (see README.md, "Pre-PR gate").

GO ?= go
FUZZTIME ?= 20s

# Pinned staticcheck release; CI installs/runs exactly this version. 2024.1.1
# is the line that supports the module's go 1.22.
STATICCHECK_VERSION ?= 2024.1.1
# Set STATICCHECK_STRICT=1 (CI does) to fail the build when staticcheck
# cannot be obtained, instead of degrading to a notice in offline sandboxes.
STATICCHECK_STRICT ?= 0

.PHONY: build test test-short vet lint staticcheck race fuzz-smoke verify verifybig sweeps bench-closure bench-partition bench-repair bench bench-test check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

# The project linter: cmd/dmacplint runs the internal/analysis suite — five
# syntactic analyzers (maporder, parownership, seeddiscipline, bytehops,
# ctxdiscipline) plus three interprocedural ones over module-wide call-graph
# summaries (detflow, lockorder, frozenstate) — over the whole module.
# Stdlib-only, so it works offline; findings are build failures.
lint: build
	$(GO) run ./cmd/dmacplint ./...

# staticcheck is pinned and non-optional: the PATH binary is used when
# present, otherwise the pinned release is fetched via `go run`. When neither
# works (hermetic sandbox with no module proxy) the gate prints a loud notice
# and — unless STATICCHECK_STRICT=1 — continues, because CI always enforces
# the strict path.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	else \
		echo "staticcheck@$(STATICCHECK_VERSION): unavailable (no binary on PATH, module fetch failed)."; \
		echo "CI enforces it; locally: go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)"; \
		[ "$(STATICCHECK_STRICT)" != "1" ] || exit 1; \
	fi

# The full test suite under the race detector: the worker pool, the
# singleflighted experiment cache and the distance caches must stay clean.
race:
	$(GO) test -race ./...

# A bounded run of every native fuzz target, as a smoke test; the committed
# corpora under internal/*/testdata/fuzz replay on every plain `go test`.
fuzz-smoke:
	$(GO) test ./internal/ir/ -fuzz FuzzParseProgram -fuzztime $(FUZZTIME)
	$(GO) test ./internal/exp/ -run '^FuzzPartition$$' -fuzz FuzzPartition -fuzztime $(FUZZTIME)
	$(GO) test ./internal/verify/ -run '^FuzzClosureDiff$$' -fuzz FuzzClosureDiff -fuzztime $(FUZZTIME)

# Static schedule race detection over the default kernel, both schedules.
# -strict: advisory warnings also fail the gate (the emitters ship
# zero-warning schedules since the full transitive sync reduction).
verify: build
	$(GO) run ./cmd/dmacp verify -strict -q

# Reachability-index scale gate: a >=100k-task nested schedule must verify
# cleanly under the default soft memory bound (the old bitset closure would
# have refused it).
verifybig:
	$(GO) test ./internal/verify/ -run TestVerifyBigSchedule -count=1 -v

# The five differential sweeps over all 12 workloads (internal/exp), each as
# its gate plus its golden-output test (testdata/<id>.golden), and the -j1 vs
# -j8 identity check of the shared sweep driver:
#   verifydiff  random programs x every scheduler variant verify clean;
#   faultsweep  repaired schedules verify clean, movement degrades
#               monotonically over the nested fault ladder;
#   onlinesweep mid-run faults repair verifier-clean, batched reassignment
#               never loses to greedy (strict win on >= 3 workloads), and
#               checkpointed re-repair beats re-partition-from-scratch;
#   churnsweep  recovery re-integration is verifier-clean and accepted only
#               when movement accounting wins, no thrash, deadline probes
#               return verifier-clean incumbents;
#   fusionsweep fused schedules verify clean and never move more than
#               unfused (strict win on >= 4 workloads).
sweeps:
	$(GO) test ./internal/exp/ -count=1 -run '^(TestVerifyDifferentialAllVariantsClean|TestFaultSweepAllWorkloadsRepairClean|TestOnlineSweepGate|TestChurnSweepGate|TestFusionSweepGate|TestRunner(VerifyDiff|FaultSweep|OnlineSweep|ChurnSweep|FusionSweep)Experiment|TestSweepsDeterministicAcrossJobs)$$'

# Closure construction/query microbenchmarks: the happens-before (interval)
# and arc-only indexes vs the bitset reference (numbers recorded in
# EXPERIMENTS.md).
bench-closure:
	$(GO) test ./internal/verify/ -run '^$$' -bench BenchmarkClosure -benchmem

# The adaptive window sweep (windows 1..8, serial) over every nest of the 12
# workloads at DefaultScale, five samples; BenchmarkPartition pins one window.
bench-partition:
	$(GO) test ./internal/core/ -run '^$$' -bench BenchmarkPartitionAdaptive -benchmem -count 5

# The online repair event loop over every nest of the 12 workloads at
# DefaultScale (9 fault events each: verifier-gated repair from the
# checkpoint, then revive-all and re-integration), five samples.
bench-repair:
	$(GO) test ./internal/core/ -run '^$$' -bench BenchmarkRepairOnline -benchmem -count 5

# The repo benchmark's own tests. e2ebench is a separate Go module that calls
# verify, core and ir internals, so `go test ./...` at the root skips it.
bench-test:
	cd e2ebench && $(GO) test ./...

# Per-experiment benchmarks (one per table/figure of the paper).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

check: build vet lint staticcheck test race verifybig sweeps bench-test
	@echo "check: all gates passed"

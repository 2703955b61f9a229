# Ripple build/test entry points. `make ci` is the full gate: lint, build,
# the race-enabled test run, a short chaos soak, the process-kill network
# soak, a profiling smoke test, a causal-trace validation smoke, the fleet
# observability smoke, the job-service smoke, the SSSP end-to-end smoke, the
# codec microbenchmark smoke, the benchmark module's build and short tests,
# and a flake guard that repeats the engine's and the WAL's concurrency
# tests under the race detector.

GO ?= go

# Fixed seed matrix for the soak gate: short by default so ci stays fast.
# Widen it for longer campaigns, e.g. `make soak SOAK_SEEDS=1,2,3,4,5,6,7,8`.
SOAK_SEEDS ?= 1,2,3

.PHONY: ci vet lint build test race loc codec-bench bench-check soak soak-net profile-smoke trace-validate fleet-smoke serve-smoke sssp-smoke flake-guard

ci: lint build race soak soak-net profile-smoke trace-validate fleet-smoke serve-smoke sssp-smoke codec-bench bench-check flake-guard

vet:
	$(GO) vet ./...

# Lint: gofmt over the whole tree (bench/ included), then staticcheck when it
# is installed, falling back to go vet (nothing is downloaded — CI images
# without staticcheck still get a gate).
lint: vet
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: unformatted files:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; go vet only"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Non-test Go code lines per package of the root module. Refactor PRs quote
# the total before and after.
loc:
	@sh scripts/loc.sh

# Codec/data-plane microbenchmarks. In ci it runs as a build-only smoke
# (-benchtime 1x), not gated on wall-clock here.
codec-bench:
	$(GO) test -bench 'BenchmarkEncodeDecode|BenchmarkDeepCopy|BenchmarkEncodedSize' \
		-benchtime 1x -benchmem -run xxx ./internal/codec/
	$(GO) test -bench 'BenchmarkEncodeEnvelopeBatch|BenchmarkEncodeQueueMsg' \
		-benchtime 1x -benchmem -run xxx ./internal/ebsp/
	$(GO) test -bench BenchmarkBoundaryPut -benchtime 1x -benchmem -run xxx ./internal/memstore/

# The benchmark module (bench/, its own go.mod) builds against the stores'
# constructors and options and mirrors their capability sets in spispan:
# build it and run its short tests so a store change that breaks it fails here.
bench-check:
	cd bench && $(GO) build ./... && $(GO) test -short ./...

# Profiling smoke test: run the quickstart with -profile and validate the
# emitted Chrome trace parses and is non-empty via ripple-inspect.
profile-smoke:
	$(GO) run ./examples/quickstart -profile /tmp/ripple_profile_smoke.json
	$(GO) run ./cmd/ripple-inspect -profile /tmp/ripple_profile_smoke.json >/dev/null
	@echo "profile smoke: trace valid"

# Causal-trace validation smoke: run the quickstart with head sampling on,
# then reconstruct every job's causal chain from the span dump and require
# each to be complete (loader -> steps -> job end, no unresolved edges) with
# at least one chain crossing a partition boundary — the no-sync relay
# included.
trace-validate:
	$(GO) run ./examples/quickstart -trace /tmp/ripple_trace_smoke.jsonl >/dev/null
	$(GO) run ./cmd/ripple-inspect -trace /tmp/ripple_trace_smoke.jsonl -lineage -check >/dev/null
	@echo "trace validate: causal chains complete"

# Race-enabled end-to-end chaos soak: PageRank + SUMMA to their fault-free
# answers under transient faults, duplication, jitter, and primary kills;
# plus the out-of-core leg — PageRank at ~30x the LSM memtable budget under
# disk.* faults, with a mid-job kill resumed from its checkpoint.
soak:
	RIPPLE_SOAK_SEEDS=$(SOAK_SEEDS) $(GO) test -race -count=1 \
		-run 'TestSoakUnderChaos|TestOutOfCore|TestEngineAutoRecoversFromPrimaryKill|TestNoSyncSurvivesDuplicationAndJitter' \
		./internal/chaos/ ./internal/ebsp/

# Fleet observability smoke: two real part-server processes, a traced
# PageRank through them, telemetry pulled over the admin ops, the merged
# clock-aligned timeline validated by ripple-inspect -fleet -check, and the
# SIGTERM shutdown flush checked for the final stats span.
fleet-smoke:
	sh scripts/fleet_smoke.sh $(GO)

# Job-service smoke: a real ripple-serve daemon over a disk store — submit
# PageRank over HTTP, stream SSE, SIGKILL the daemon mid-job, restart it on
# the same data directory, and require the resumed job to finish with result
# bytes identical to an uninterrupted control run; plus /metrics scrape, the
# two-tenant quota 429s, and DELETE-cancel inside one barrier.
serve-smoke:
	$(GO) test -count=1 -run TestServeSmoke ./internal/serve/

# SSSP end-to-end smoke: both variants through thirty change batches, enough
# that hot vertices see repeated adds and removes within one batch; the
# example exits non-zero unless each matches a BFS reference after every batch.
sssp-smoke:
	$(GO) run ./examples/sssp -vertices 400 -edges 3000 -batches 30 -batch-size 100

# Process-kill network soak: the SSSP full-scan workload against real
# ripple-part-server child processes over loopback while the chaos schedule
# SIGKILLs one mid-step and opens a one-way partition against another; the
# final table must be byte-identical to the same workload on an in-process
# store. Also exercises the wire-fault injector against an in-process fleet.
soak-net:
	$(GO) test -race -count=1 \
		-run 'TestProcessKillSoak|TestWireChaosAgainstFleet' \
		./internal/netstore/ ./internal/chaos/

# Flake guard: the tests that race engines, Run/Resume callers, checkpoint
# copy agents, no-sync workers publishing their telemetry, or WAL writers
# against each other, twenty times each under the race detector, so a
# once-in-fifty interleaving fails here instead of in a later change's run.
flake-guard:
	$(GO) test -race -count=20 \
		-run '^(TestSameJobNameTwoEnginesOneStore|TestBusyGuardUnderChurn|TestResumeWhileRunningReturnsBusy|TestCheckpointSurvivesDeathAtEveryCall|TestTelemetryGolden)$$' \
		./internal/ebsp/
	$(GO) test -race -count=20 -run '^TestGroupCommitBatchesConcurrentWriters$$' ./internal/diskstore/

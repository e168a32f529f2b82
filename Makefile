GO ?= go
BENCH_DATE := $(shell date +%F)
BENCH_LATEST = $(lastword $(sort $(filter-out BENCH_baseline.json,$(wildcard BENCH_*.json))))

.PHONY: build test vet race check verify bench benchdiff cover e2e e2e-dispatch e2e-crash e2e-eco e2e-shard e2e-rebalance e2e-yield test-flake fuzz-smoke perfbench-vet loc examples

build:
	$(GO) build ./...

# Tier 1: the fast correctness gate.
test: build
	$(GO) test ./...

# Static analysis, plus a formatting gate: gofmt must list no tracked Go
# file (tracked only, so the module caches perfbench keeps under
# .bench_build/ are never scanned).
vet:
	$(GO) vet ./...
	@unformatted=$$(git ls-files -z '*.go' | xargs -0 -r gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# Tier 2: static analysis plus the full suite under the race detector.
# Slower, but the cancellation and fault-injection paths are concurrent,
# so this is the tier that must pass before a release.
race: vet
	$(GO) test -race ./...

# Default gate: tier 1, vet, the service benchmark's build and helper
# tests, the worker-determinism tests under the race detector (the
# parallel fan-outs must be bitwise reproducible at any worker count;
# the full -race suite stays in `make race`), the coverage floor, a
# short fuzz smoke over the lease protocol and journal replay, the
# subprocess kill -9 recovery loop, and — because every job runs on the
# lease queue — the dispatch chaos suite, the whole queue package and
# the server's local-executor and durable-store e2e tests (dispatch,
# recovery, end-to-end, structured refusals) under the race detector,
# and every example program.
check: test vet perfbench-vet examples cover fuzz-smoke e2e-crash e2e-eco e2e-shard e2e-rebalance e2e-yield e2e-dispatch
	$(GO) test -race -run Parallel . ./internal/...
	$(GO) test -race ./internal/jobq
	$(GO) test -race -timeout 120s -run 'Dispatch|Recovery|EndToEnd|Refusal' ./internal/server

# The service benchmark is its own module over this checkout (`replace
# wavemin => ../`, no downloads), so a change that breaks an API it calls
# fails here rather than in the benchmark run.
perfbench-vet:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Every example program runs to completion: stdout is discarded, stderr
# stays visible, and a non-zero exit fails the target. No test runs them,
# so this is what keeps them building and working.
examples:
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

# Non-test Go lines of the module proper — the root package, cmd/,
# internal/ and scripts/; not examples/, perfbench/ or .bench_build/ —
# the size figure changes report before and after. A second line gives
# internal/server's own non-test count, the package with a size target
# in ROADMAP.md.
loc:
	@{ ls *.go; find cmd internal scripts -name '*.go'; } | grep -v '_test\.go$$' | xargs cat | wc -l
	@echo "internal/server $$(ls internal/server/*.go | grep -v '_test\.go$$' | xargs cat | wc -l)"

# Coverage with floors: internal/obs (the telemetry layer every solver
# calls into), the serving stack (jobq, rescache, server, dispatch), and
# the durability tier (wal, castore) must stay above 70% statement
# coverage; everything else is reported for information only. The
# shard-routing and gossip files carry their own per-file floors — the
# server package is large enough to hide an untested routing layer
# behind its aggregate number.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) run ./scripts/coverfloor -profile cover.out \
		-floor wavemin/internal/obs=70 \
		-floor wavemin/internal/jobq=70 \
		-floor wavemin/internal/rescache=70 \
		-floor wavemin/internal/zonecache=70 \
		-floor wavemin/internal/server=70 \
		-floor wavemin/internal/dispatch=70 \
		-floor wavemin/internal/wal=70 \
		-floor wavemin/internal/castore=70 \
		-floor wavemin/internal/shard=70 \
		-floor wavemin/internal/yield=70 \
		-filefloor wavemin/internal/server/shardroute.go=90 \
		-filefloor wavemin/internal/server/gossip.go=85
	@rm -f cover.out

# End-to-end: the wavemind service suite (full HTTP stack, queue,
# cache, fault injection, drain) under the race detector.
e2e:
	$(GO) test -race -timeout 120s ./internal/server/...

# Distributed e2e: the coordinator/worker fleet under chaos — workers
# killed mid-solve, heartbeats dropped, coordinator partitioned — with
# the race detector on. Every job must terminate and requeued work must
# stay byte-identical to an uninterrupted local solve.
e2e-dispatch:
	$(GO) test -race -timeout 180s ./internal/dispatch/...

# Crash-recovery e2e: build the real wavemind binary, kill -9 it at
# seeded-random moments across several incarnations on one -data-dir,
# and assert the final incarnation answers every problem with
# byte-identical results. WAVEMIND_E2E_CRASH_SEED varies the schedule.
e2e-crash:
	WAVEMIND_E2E_CRASH=1 $(GO) test -timeout 120s -run '^TestCrashLoopKill9$$' ./internal/server

# ECO e2e: incremental re-optimization over the full HTTP stack under
# the race detector — base-reference error contract, bitwise equivalence
# of delta vs cold solves across worker counts (local and dispatched),
# and crash recovery mid-ECO on a durable data dir.
e2e-eco:
	$(GO) test -race -timeout 180s -run 'ECO' ./internal/server

# Cluster e2e: a 3-coordinator in-process fleet behind the shard-routing
# layer, under the race detector — cross-node cache hits must be bitwise
# replays with no solver re-run, the replayed-workload hit rate must
# equal a single-node baseline, and a seeded kill/restart of one owner
# mid-solve must degrade to structured 503s that clear on recovery with
# results byte-identical to a single-node reference run.
# WAVEMIND_E2E_SHARD_SEED varies the kill schedule.
e2e-shard:
	$(GO) test -race -timeout 180s -run 'ShardFleet' ./internal/server
	$(GO) test -race -timeout 60s ./internal/shard

# Yield e2e: statistical yield mode under the race detector — local
# report shape, early-stop metrics, cache replay under the extended
# key, and the distributed acceptance run: a 3-worker fleet with a
# seeded mid-chunk worker kill must produce bytes identical to the
# single-node reference.
e2e-yield:
	$(GO) test -race -timeout 180s -run 'Yield' ./internal/server ./internal/yield

# Rebalance e2e: the live shard-map machinery under the race detector —
# gossip convergence (a stale node catches up without restart, by
# anti-entropy pull or by the 409 traffic path), drain-before-flip
# bucket handoff (post-rebalance hit rate identical to the baseline, no
# re-solves), and the seeded chaos scenario on a durable fleet: a bucket
# moves mid-workload, the OLD owner and then the NEW owner are killed,
# reads degrade to replicas instead of 503, no acknowledged job is lost,
# and every byte matches a single-node reference.
# WAVEMIND_E2E_REBALANCE_SEED varies the schedule.
e2e-rebalance:
	$(GO) test -race -timeout 180s -run 'ShardRebalance|ShardGossipSkew' ./internal/server

# Flake hunt: the rebalance chaos scenario 5x under distinct seeds (the
# schedule is seed-derived, so each run kills at different moments).
test-flake:
	@for seed in 11 22 33 44 55; do \
		echo "== e2e-rebalance seed $$seed"; \
		WAVEMIND_E2E_REBALANCE_SEED=$$seed $(GO) test -race -timeout 180s -count=1 \
			-run 'ShardRebalance|ShardGossipSkew' ./internal/server || exit 1; \
	done

# Short fuzz passes: the lease wire protocol (malformed bodies, stale
# and replayed lease IDs), journal replay (arbitrary bytes on disk
# must recover or refuse, never panic), shard routing (forged forwards
# and hostile job IDs must terminate in structured 4xx with no
# wrong-shard cache writes), map gossip (hostile map injections and
# forged handoff pushes: structured 4xx or ignored-with-counter, version
# monotone, no wrong-shard cache write), and the request decoder (an
# accepted request keys as LoadTree + SetModes + CacheKey would, the
# request path accepts, refuses and words errors as LoadTree does, the
# one-pass envelope reader answers only as the Decoder path would, and
# WriteJSON writes encoding/json's bytes), the peak sweep's bucketed
# event order (a permutation, sorted, equal to slices.SortFunc's on
# events with repeated and extreme times), the feasible-interval sweep
# (the legacy quadratic enumerator's intervals, lists and errors, and
# its top-k pick, on arrival sets with ties inside the 1e-9 slack) and
# the bounded hot-spot pick (the Sum-based pick's times on waves with
# shared breakpoints and tied currents, inputs left unmodified).
# Seconds-long smoke for `make check`; run with a larger -fuzztime when
# hunting.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLeaseProtocol$$' -fuzztime 5s ./internal/dispatch
	$(GO) test -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime 5s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzShardRoute$$' -fuzztime 5s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzShardMapGossip$$' -fuzztime 5s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzYieldRequest$$' -fuzztime 5s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzOptimizeRequest$$' -fuzztime 5s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzRequestEnvelope$$' -fuzztime 5s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSON$$' -fuzztime 5s ./internal/clocktree
	$(GO) test -run '^$$' -fuzz '^FuzzEventOrder$$' -fuzztime 5s ./internal/clocktree
	$(GO) test -run '^$$' -fuzz '^FuzzFeasibleIntervals$$' -fuzztime 5s ./internal/polarity
	$(GO) test -run '^$$' -fuzz '^FuzzHotSpots$$' -fuzztime 5s ./internal/waveform
	$(GO) test -run '^$$' -fuzz '^FuzzLoadTree$$' -fuzztime 5s .

verify: test race

# Benchmark snapshot: one pass over every benchmark, recorded as
# BENCH_<date>.json for regression tracking against BENCH_baseline.json.
bench: build
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x . ./internal/yield ./internal/server | tee bench.out
	$(GO) run ./scripts/benchjson < bench.out > BENCH_$(BENCH_DATE).json
	@rm -f bench.out
	@echo wrote BENCH_$(BENCH_DATE).json

# Non-blocking regression report: newest snapshot vs the committed
# baseline. Informational — single-run perf noise should not fail CI,
# hence the leading "-".
benchdiff:
	-$(GO) run ./scripts/benchdiff -threshold 25 BENCH_baseline.json $(BENCH_LATEST)

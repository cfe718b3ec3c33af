GO ?= go

.PHONY: ci fmt build vet test race flake bench bench-smoke bench-e2e fuzz-smoke bench-baseline e2e-cluster e2e-journal e2e-chaos e2e-mixed docs-check

# ci is the tier-1 gate: everything must build, vet clean, pass under
# the race detector, stay green when the concurrent packages' tests
# are repeated (flake), keep the batched dispatch path alive (bench-smoke
# catches dispatch-path regressions that compile fine), keep the binary
# wire codec and the journal file decoder honest against malformed
# inputs (fuzz-smoke), keep the multi-process cluster path alive
# (e2e-cluster), keep crash recovery honest (e2e-journal), keep the
# deadline/retry/breaker machinery honest under injected faults
# (e2e-chaos), keep byte-fair scheduling honest under a mixed
# large-payload load (e2e-mixed), keep the docs honest (docs-check
# catches references to removed symbols), and keep every Go file gofmt
# clean (fmt).
ci: fmt build vet race flake bench-smoke fuzz-smoke e2e-cluster e2e-journal e2e-chaos e2e-mixed docs-check

fmt:
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# flake repeats the concurrent packages' tests twenty times under the
# race detector: a test that passes "usually" fails here. memctx is in
# the set because its ownership moves (adopt, take, borrowed regions)
# are the only data path; autoscale because every batch request's
# admission runs through it under one lock, with racing clock reads;
# dvm and isolation because every engine draws sandbox memory from the
# same pools.
flake:
	$(GO) test -race -count=20 ./internal/sched ./internal/cluster ./internal/core ./internal/frontend ./internal/journal ./internal/memctx ./internal/autoscale ./internal/dvm ./internal/isolation

# bench tracks the serving-path trajectory: batched dispatch vs looped
# single invokes, plus the core microbenchmarks.
bench:
	$(GO) test -run XXX -bench 'BenchmarkInvokeBatch|BenchmarkPlatformInvoke' -benchmem .

# bench-smoke is a short single-iteration run of the batched dispatch
# and HTTP serving benchmarks: not a performance measurement, just
# proof the hot paths still execute end to end — looped single invokes
# and the batch path, both wire framings (json, binary) across
# every payload size, the mixed multi-tenant workload shape, the
# journaled serving modes (off / on-unkeyed / on-keyed), and the
# journal append path itself (memory vs file, with/without batching).
bench-smoke:
	$(GO) test -run XXX -bench 'BenchmarkInvokeBatch|BenchmarkServingHTTP|BenchmarkServingJournal|BenchmarkMixedTenants' -benchtime 1x -benchmem .
	$(GO) test -run XXX -bench 'BenchmarkJournalAppend' -benchtime 1x -benchmem ./internal/journal/

# fuzz-smoke runs the codec fuzzers briefly: long enough to replay the
# corpus and probe a few thousand mutations each of the binary framing
# grammar (internal/wire FuzzWireRoundTrip) and the journal file format
# (internal/journal FuzzJournalReplay — torn writes, flipped CRCs,
# adversarial lengths), short enough for CI.
fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzWireRoundTrip -fuzztime 5s ./internal/wire/
	$(GO) test -run XXX -fuzz FuzzJournalReplay -fuzztime 5s ./internal/journal/

# bench-e2e runs the repository's benchmark (BENCHMARK.json): four
# served workloads against a separately exec'd cmd/dandelion, validated
# end-to-end metrics plus a traced per-layer pass. This — A/B against
# the parent commit, see bench/README.md — is the regression gate.
bench-e2e:
	bash bench/run.sh

# bench-baseline is historical: it appends one more single-draw
# BENCH_N.json snapshot of the bench_test.go rows. The committed
# BENCH_*.json files record the PR 4-10 trajectory and are not a
# regression gate (untouched rows drift 30% between them); judge
# performance with bench-e2e.
#
# bench-baseline snapshots the serving-path numbers (inv/s and allocs/op
# for the single and batch dispatch paths, wire MB/s
# for the JSON-vs-binary HTTP framings up to 1 MiB payloads, the
# per-scenario mixed-tenant rows, the journal-off vs journal-on
# serving delta and journal append costs, plus the sharded-vs-mutex
# counter contention probe) into BENCH_10.json — alongside the committed
# PR-4/PR-5/PR-7/PR-8 baselines — giving future PRs a perf trajectory to
# regress against (see scripts/bench-baseline.sh).
bench-baseline:
	sh scripts/bench-baseline.sh

# e2e-cluster runs the race-enabled remote-cluster end-to-end test:
# two httptest-backed workers join a coordinator over the wire, one is
# killed mid-run, and reroute + eviction are verified (docs/CLUSTER.md).
e2e-cluster:
	$(GO) test -race -run 'TestClusterE2E' ./internal/loadgen/

# e2e-journal runs the race-enabled crash-recovery end-to-end test: a
# file-journaled worker loses a response mid-batch (keyed retry dedups,
# exactly-once), is killed without cleanup, and restarts against the
# same journal directory with its reconfiguration and completed keys
# replayed (docs/JOURNAL.md).
e2e-journal:
	$(GO) test -race -run 'TestJournalCrashRecoveryE2E' ./internal/loadgen/

# e2e-chaos runs the race-enabled chaos end-to-end test: a seeded fault
# plan (internal/faultinject) breaks one of two workers' transports; the
# test asserts the circuit breaker trips, traffic reroutes inside its
# deadline, nothing executes twice, and the shed/timeout/expiry counters
# come out exact (docs/ROBUSTNESS.md).
e2e-chaos:
	$(GO) test -race -run 'TestChaosE2E' ./internal/loadgen/

# e2e-mixed runs the race-enabled mixed-tenant end-to-end test: the
# three served workload suites (docs/WORKLOADS.md) flood one frontend
# as concurrent tenants with byte-fair DRR on, and the interactive
# tenant's dispatch-wait p99 must stay bounded while the analytics
# tenant ships megabyte-class SSB batches.
e2e-mixed:
	$(GO) test -race -run 'TestMixedTenantE2E' ./internal/loadgen/

# docs-check fails if README.md or docs/ reference Go symbols or CLI
# flags that no longer exist (see scripts/docs-check.sh).
docs-check:
	sh scripts/docs-check.sh

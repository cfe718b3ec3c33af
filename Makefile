GO ?= go

.PHONY: ci fmt build cross vet test race flake bench-smoke bench-e2e fuzz-smoke e2e-cluster e2e-journal e2e-chaos e2e-mixed docs-check

# ci is the tier-1 gate: everything must build, here and for windows,
# darwin and arm64 (cross), vet clean, pass under the race detector,
# stay green when the concurrent packages' tests are repeated (flake),
# keep five packages' microbenchmarks running (bench-smoke catches hot paths
# that compile fine but no longer execute), keep the wire codecs, the
# journal file decoder and the completed-key table honest against
# malformed inputs and operation scripts (fuzz-smoke), keep the
# multi-process cluster path alive (e2e-cluster), keep crash recovery
# honest (e2e-journal), keep the deadline/retry/breaker machinery
# honest under injected faults (e2e-chaos), keep byte-fair scheduling
# honest under a mixed large-payload load (e2e-mixed), keep the docs
# honest (docs-check catches references to removed symbols and files),
# and keep every Go file gofmt clean (fmt).
ci: fmt build cross vet race flake bench-smoke fuzz-smoke e2e-cluster e2e-journal e2e-chaos e2e-mixed docs-check

fmt:
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

# cross builds the tree for windows, darwin and linux/arm64: the dedup
# table's log takes its chunks from anonymous mmap on unix and from the
# heap elsewhere (internal/journal chunk_unix.go, chunk_other.go), and
# MakeBlob's AVX2 fill exists only on amd64 (internal/workloads
# makeblob_amd64.s, makeblob_other.go), so every source must keep
# compiling.
cross:
	GOOS=windows GOARCH=amd64 $(GO) build ./...
	GOOS=darwin GOARCH=amd64 $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# flake repeats the concurrent packages' tests twenty times under the
# race detector: a test that passes "usually" fails here. engine is in
# the set because its pools drain their queue on Shutdown while engines
# are still running tasks, and its compute engines yield between tasks;
# ctlplane because its one control loop resizes the pools with SetCount
# from its own goroutine while engines run; sched and core because
# every invocation's dispatch crosses them from many goroutines. memctx is in the set because its ownership moves (adopt,
# take, borrowed regions) are the only data path; autoscale because every batch request's
# admission runs through it under one lock, with racing clock reads;
# dvm and isolation because every engine draws sandbox memory from the
# same pools; ssb, qoiimg and workloads because every engine's served
# kernels share the PNG encoder, chunk column and selection pools.
flake:
	$(GO) test -race -count=20 ./internal/engine ./internal/ctlplane ./internal/sched ./internal/cluster ./internal/core ./internal/frontend ./internal/journal ./internal/memctx ./internal/autoscale ./internal/dvm ./internal/isolation ./internal/ssb ./internal/qoiimg ./internal/workloads

# bench-smoke runs five packages' microbenchmarks once each: not a
# performance measurement (bench-e2e is that), just proof the hot paths
# still execute — the journal append path (memory vs file,
# with/without batching), the completed-key table at its full default
# bound, a Complete that evicts and a duplicate hit (internal/journal
# BenchmarkDedup), the executor's walk over one statement, a
# chain and a diamond (internal/core BenchmarkInvoke), both SSB
# generators: the dimension tables a worker builds at registration
# (internal/ssb BenchmarkGenerateDims, ssb.GenerateDims) and the whole
# database clients and tests build (BenchmarkGenerate, ssb.Generate),
# and the JSON batch body decode, encoding/json beside the scanner
# wire.DecodeBatchJSON takes for the compact form (internal/wire
# BenchmarkDecodeBatchJSON), and the served kernels: one SSBQuery
# invocation per query (internal/workloads BenchmarkSSBQuery) and the
# storage suite's StoreGen and StoreScan on one 256 KiB blob
# (BenchmarkStorageKernels).
bench-smoke:
	$(GO) test -run XXX -bench 'BenchmarkJournalAppend|BenchmarkDedup' -benchtime 1x -benchmem ./internal/journal/
	$(GO) test -run XXX -bench 'BenchmarkInvoke' -benchtime 1x -benchmem ./internal/core/
	$(GO) test -run XXX -bench 'BenchmarkGenerate(Dims)?$$' -benchtime 1x -benchmem ./internal/ssb/
	$(GO) test -run XXX -bench 'BenchmarkDecodeBatchJSON' -benchtime 1x -benchmem ./internal/wire/
	$(GO) test -run XXX -bench 'BenchmarkSSBQuery|BenchmarkStorageKernels' -benchtime 1x -benchmem ./internal/workloads/

# fuzz-smoke runs the codec fuzzers briefly: long enough to replay the
# corpus and probe a few thousand mutations each of the binary framing
# grammar (internal/wire FuzzWireRoundTrip), the JSON batch body
# decoder (internal/wire FuzzDecodeBatchJSON — held to encoding/json,
# and the compact form json.Marshal writes must take the scanner),
# the journal file format
# (internal/journal FuzzJournalReplay — torn writes, flipped CRCs,
# adversarial lengths), the completed-key table (internal/journal
# FuzzDedup — operation scripts held to a map-and-FIFO reference), the SSB partial-aggregate rows
# (internal/ssb FuzzDecodeGroupSum — held to the fmt-based decoder it
# replaced), the storage scan digests (internal/workloads
# FuzzStoreSumDigest — whatever StoreSum accepts renders back to the
# same bytes), the lane-parallel blob generator (internal/workloads
# FuzzMakeBlob — held to the sequential loop it replaced) and the
# functions' filesystem (internal/vfs FuzzVFS — held to a map-backed
# reference), short enough for CI.
fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzWireRoundTrip -fuzztime 5s ./internal/wire/
	$(GO) test -run XXX -fuzz FuzzDecodeBatchJSON -fuzztime 5s ./internal/wire/
	$(GO) test -run XXX -fuzz FuzzJournalReplay -fuzztime 5s ./internal/journal/
	$(GO) test -run XXX -fuzz FuzzDedup -fuzztime 5s ./internal/journal/
	$(GO) test -run XXX -fuzz FuzzDecodeGroupSum -fuzztime 5s ./internal/ssb/
	$(GO) test -run XXX -fuzz FuzzStoreSumDigest -fuzztime 5s ./internal/workloads/
	$(GO) test -run XXX -fuzz FuzzMakeBlob -fuzztime 5s ./internal/workloads/
	$(GO) test -run XXX -fuzz FuzzVFS -fuzztime 5s ./internal/vfs/

# bench-e2e runs the repository's benchmark (BENCHMARK.json): four
# served workloads against a separately exec'd cmd/dandelion, validated
# end-to-end metrics plus a traced per-layer pass. This — A/B against
# the parent commit, see bench/README.md — is the regression gate.
bench-e2e:
	bash bench/run.sh

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

# docs-check fails if README.md or docs/ reference Go symbols, CLI
# flags or repo files that no longer exist (see scripts/docs-check.sh).
docs-check:
	sh scripts/docs-check.sh

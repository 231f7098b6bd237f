GO ?= go
# BENCHTIME tunes the bench-json run: the default gives stable numbers;
# CI smoke uses BENCHTIME=1x.
BENCHTIME ?= 1s
# The evaluation benchmarks recorded in BENCH_evaluation.json:
# E5 (FDR corrections), E6 (online eval throughput), E9 (end-to-end),
# plus the in-place hot-path benches whose allocs/op are pinned.
EVAL_BENCH = BenchmarkFDRCorrections|BenchmarkOnlineEvalThroughput|BenchmarkEndToEndPipeline

# The in-place benchmarks whose allocs/op are pinned in ALLOC_PINS and
# gated by bench-allocs. BenchmarkBusPublish also matches
# BenchmarkBusPublishConsume; BenchmarkGatewayPutPath pins the /api/v1
# ingest edge through the full middleware chain; BenchmarkDetectorBatch
# matches every detector family's warmed batch path; BenchmarkRegionScan
# is one filtered seek-and-merge region read.
ALLOC_BENCH = BenchmarkEvaluateBatchInto|BenchmarkApplyInto|BenchmarkMulInto|BenchmarkBusPublish|BenchmarkQueryCacheHit|BenchmarkGatewayPutPath|BenchmarkDetectorBatch|BenchmarkCompressedScan|BenchmarkRegionScan

# GATE_BENCHTIME drives the bench-gate comparison runs: long enough for
# stable ns/op medians, short enough for a PR loop.
GATE_BENCHTIME ?= 300ms

.PHONY: build lint vet fmt test bench bench-json bench-query bench-allocs bench-gate soak backtest chaos conformance cluster cluster-smoke load-smoke load check

build:
	$(GO) build ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

lint: fmt vet

test:
	$(GO) test -race ./...

# Benchmark smoke: compile and run every benchmark once, no timing
# fidelity expected — catches bit-rot, not regressions.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# bench-json runs the evaluation benchmarks (E5/E6/E9 plus the in-place
# core/fdr hot paths) with -benchmem and records name → samples/s,
# ns/op, allocs/op in BENCH_evaluation.json — the committed perf
# trajectory. See README.md "Perf methodology".
bench-json: bench-query
	@rm -f bench-eval.out
	$(GO) test -run '^$$' -bench '$(EVAL_BENCH)' -benchtime $(BENCHTIME) -benchmem . > bench-eval.out
	$(GO) test -run '^$$' -bench 'BenchmarkEvaluateBatch|BenchmarkApplyInto' -benchtime $(BENCHTIME) -benchmem ./internal/core/ ./internal/fdr/ >> bench-eval.out
	$(GO) test -run '^$$' -bench 'BenchmarkBusPublishConsume|BenchmarkDetectorPoolFanout' -benchtime $(BENCHTIME) -benchmem ./internal/bus/ ./sentinel/ >> bench-eval.out
	$(GO) test -run '^$$' -bench 'BenchmarkGatewayPutPath|BenchmarkGatewayCachedQuery|BenchmarkIngestPutBaseline' -benchtime $(BENCHTIME) -benchmem ./internal/api/ >> bench-eval.out
	$(GO) run ./cmd/benchjson -out BENCH_evaluation.json < bench-eval.out
	@rm -f bench-eval.out

# bench-query records the read-tier trajectory in BENCH_query.json:
# the cold scatter-gather path, the cached hot path (whose allocs/op
# is also pinned by bench-allocs), LTTB bounding, and the compressed
# storage tier (zero-alloc block scan, compression ratio, rollup-served
# wide windows).
bench-query:
	@rm -f bench-query.out
	$(GO) test -run '^$$' -bench 'BenchmarkQuery' -benchtime $(BENCHTIME) -benchmem ./internal/query/ > bench-query.out
	$(GO) test -run '^$$' -bench 'BenchmarkCompressedScan|BenchmarkBlockCompress|BenchmarkRollupQuery' -benchtime $(BENCHTIME) -benchmem ./internal/tsdb/ >> bench-query.out
	$(GO) run ./cmd/benchjson -out BENCH_query.json < bench-query.out
	@rm -f bench-query.out

# bench-allocs gates the allocs/op pins: the in-place hot paths run
# once (-benchtime=1x -benchmem) and cmd/allocgate fails the build if
# any exceeds its ceiling in ALLOC_PINS. Timing-noise free, so it is a
# gating CI step, unlike the bench-json smoke.
bench-allocs:
	@rm -f bench-allocs.out
	$(GO) test -run '^$$' -bench '$(ALLOC_BENCH)' -benchtime 1x -benchmem \
		./internal/core/ ./internal/fdr/ ./internal/linalg/ ./internal/bus/ ./internal/query/ ./internal/api/ ./internal/mllib/ ./internal/tsdb/ ./internal/hbase/ > bench-allocs.out
	$(GO) run ./cmd/allocgate -pins ALLOC_PINS < bench-allocs.out
	@rm -f bench-allocs.out

# bench-gate is the regression ratchet: re-run the benchmarks whose
# key metrics are pinned in BENCH_PINS and compare against the
# committed BENCH_query.json / BENCH_evaluation.json baselines.
# Per-metric tolerances absorb runner noise; a genuine 2x regression
# fails the build. Refresh baselines with `make bench-json` after an
# intentional perf change.
bench-gate:
	@rm -f bench-gate.out
	$(GO) test -run '^$$' -bench 'BenchmarkQueryCacheHit|BenchmarkQueryColdScatterGather' -benchtime $(GATE_BENCHTIME) -benchmem ./internal/query/ > bench-gate.out
	$(GO) test -run '^$$' -bench 'BenchmarkCompressedScan|BenchmarkBlockCompress' -benchtime $(GATE_BENCHTIME) -benchmem ./internal/tsdb/ >> bench-gate.out
	$(GO) test -run '^$$' -bench 'BenchmarkOnlineEvalThroughput|BenchmarkEndToEndPipeline' -benchtime $(GATE_BENCHTIME) -benchmem . >> bench-gate.out
	$(GO) run ./cmd/benchgate -pins BENCH_PINS -baseline BENCH_query.json -baseline BENCH_evaluation.json -skip BenchmarkLoad < bench-gate.out
	@rm -f bench-gate.out

# load-smoke is the gating overload-contract check: cmd/loadgen boots
# an in-process System behind a real listener, calibrates capacity
# closed-loop, then drives 2x capacity open-loop (coordinated-omission
# safe) with mixed ingest / interactive / bulk / SSE-tailer traffic
# against the admission controller. -assert enforces the contract —
# accepted-ingest p99 bounded, zero acked-point loss, sheds present
# and ordered bulk >= interactive >= ingest — and benchgate then
# ratchets the fresh numbers against the committed BENCH_load.json
# (only the BenchmarkLoad pins; the PR-loop bench-gate skips them).
load-smoke:
	@rm -f bench-load.out bench-load.json
	$(GO) run ./cmd/loadgen -self -assert -calibrate 3s -duration 6s \
		-out bench-load.json -bench bench-load.out
	$(GO) run ./cmd/benchgate -pins BENCH_PINS -baseline BENCH_load.json -only BenchmarkLoad < bench-load.out
	@rm -f bench-load.out bench-load.json

# load is the full-length run that refreshes the committed
# BENCH_load.json baseline (nightly, or after an intentional
# capacity/latency change — commit the refreshed file).
load:
	$(GO) run ./cmd/loadgen -self -assert -calibrate 5s -duration 20s -out BENCH_load.json

# soak runs the storage-tier compression soak at nightly length: a
# multi-hour ingest → seal → spill → query cycle asserting
# byte-identical readback through the whole tier, under the race
# detector.
soak:
	TSDB_SOAK=1 $(GO) test -race -run TestCompressionSoak -count=1 -v ./internal/tsdb/

# backtest scores every registered detector family against the
# simulated fleet's injected-fault scenarios (stuck-at, drift, spike,
# correlated shift) and records precision / recall / detection latency
# per (detector, scenario) in BENCH_detectors.json. The spike-recall
# gate is the committed floor the CI smoke step also enforces.
backtest:
	$(GO) run ./cmd/backtest -gate spike:0.30 -out BENCH_detectors.json

# chaos runs the seeded fault-injection soak under the race detector:
# a full System endures a TSD crash/restart, an RPC error burst, a
# stalled proxy edge and a storage blackout, and must come out with
# zero acked-sample loss, zero failed reader queries (degraded-marked
# stale answers are legal), every breaker cycled back to closed and
# recovery inside the budget. The verdict and counters land in
# BENCH_chaos.json. Seeded and gating: ~30s, no timing assertions
# beyond the generous recovery budget.
chaos:
	$(GO) run -race ./cmd/chaossoak -seed 42 -duration 20s -out BENCH_chaos.json

# conformance runs the /api/v1 route-contract table: every route
# answers and every error class maps onto the documented status +
# envelope code. Cheap, deterministic, gating in CI.
conformance:
	$(GO) test ./internal/api/... -run TestV1Conformance

# cluster boots a local four-process cluster on fixed ports: one
# broker, two store nodes, and a combined detect+gateway node hosting
# the coordination service, with the gateway's HTTP surface on
# 127.0.0.1:8080. Ctrl-C tears every process down. Drive it with
# `go run ./examples/clusterdemo` or the SDK.
CLUSTER_PEERS = broker=127.0.0.1:7401,store-1=127.0.0.1:7402,store-2=127.0.0.1:7403,dg=127.0.0.1:7404
CLUSTER_ARGS = -peers $(CLUSTER_PEERS) -partitions 4 -units 4 -sensors 3 -stores 2
cluster:
	$(GO) build -o bin/sentineld ./cmd/sentineld
	@trap 'kill 0' INT TERM EXIT; \
	bin/sentineld -name dg -role detect,gateway -listen 127.0.0.1:7404 -http 127.0.0.1:8080 $(CLUSTER_ARGS) & \
	bin/sentineld -name broker -role broker -listen 127.0.0.1:7401 -zk-node dg $(CLUSTER_ARGS) & \
	sleep 1; \
	bin/sentineld -name store-1 -role store -listen 127.0.0.1:7402 -zk-node dg $(CLUSTER_ARGS) & \
	bin/sentineld -name store-2 -role store -listen 127.0.0.1:7403 -zk-node dg $(CLUSTER_ARGS) & \
	wait

# cluster-smoke is the gating multi-process failover check: it boots
# the same four-role topology as separate OS processes, ingests
# through the gateway with the SDK, SIGKILLs the broker mid-stream,
# and asserts zero acked-sample loss, a promoted store leader on
# /api/v1/cluster, and an anomaly on the SSE stream. See
# cmd/clustersmoke.
cluster-smoke:
	$(GO) build -o bin/sentineld ./cmd/sentineld
	$(GO) run ./cmd/clustersmoke -bin bin/sentineld

check: lint build test bench bench-allocs bench-gate backtest chaos conformance cluster-smoke load-smoke

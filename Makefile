# Contributor/CI entrypoints. `make test` is the exact tier-1 command the
# roadmap pins; CI must run the same thing contributors do.

PYTHON ?= python
SMOKE_REPORT ?= .bench/smoke.json
BENCH_DIR ?= .bench
TRAJECTORY ?= .bench/trajectory.json
# One record per bench gate: engine-cache, async-sharded, warm-start,
# streaming-topk, shared-scan-batch, resharding, adaptive-tuning,
# columnar-kernel, dynamic-serving. bench-trend fails if fewer report.
GATE_COUNT ?= 9

.PHONY: test collect lint lint-deep format docs-check test-lock-order \
	bench-smoke bench-warm bench-stream bench-batch bench-reshard \
	bench-adapt bench-kernel bench-dynamic bench-trend bench \
	perfbench-smoke

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

collect:
	PYTHONPATH=src $(PYTHON) -m pytest --collect-only -q

lint:
	ruff check src tests benchmarks
	ruff format --check src

# Project-specific static analysis (repro.analysis): lock discipline,
# restart stability, exception hygiene, shared aliasing, parity
# surface. Fails on any finding not in analysis-baseline.txt and on
# stale baseline entries. See CONTRIBUTING.md for triage.
lint-deep:
	PYTHONPATH=src $(PYTHON) -m repro.analysis src/repro

format:
	ruff format src
	ruff check --fix src tests benchmarks

# Docs gate: every relative markdown link in the README, docs/, and the
# top-level project files must resolve to a real file (anchors and
# external URLs are out of scope — no network in CI), and the
# docs/OPERATIONS.md metric inventory must match the metrics the code
# actually declares, both directions.
docs-check:
	$(PYTHON) benchmarks/check_docs_links.py
	$(PYTHON) benchmarks/check_metric_docs.py

# Dynamic lock-order leg: re-runs the engine's concurrency hammer tests
# with every engine lock replaced by an instrumented wrapper recording
# the runtime acquisition graph; the session fails on any cycle
# (a latent deadlock), however the timing fell.
test-lock-order:
	PYTHONPATH=src REPRO_LOCK_ORDER=1 $(PYTHON) -m pytest -x -q \
		tests/test_engine.py tests/test_async_engine.py \
		tests/test_sharding.py tests/test_elastic.py \
		tests/test_parallel_builds.py tests/test_telemetry.py \
		tests/test_lock_order.py

# The smoke run writes a JSON report and fails if any benchmark errored
# or the run silently collected nothing — CI gates on it.
bench-smoke:
	mkdir -p $(dir $(SMOKE_REPORT))
	PYTHONPATH=src REPRO_BENCH_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/bench_engine_serving.py benchmarks/bench_async_serving.py \
		-q --benchmark-json=$(SMOKE_REPORT)
	$(PYTHON) benchmarks/check_smoke_report.py $(SMOKE_REPORT) 5

# Warm-start gate: fails unless a restarted server warms from its
# snapshot directory >= 5x faster than the cold build (and the
# process-built sharded answers stay oracle-identical).
bench-warm:
	PYTHONPATH=src REPRO_BENCH_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/bench_snapshot_warmstart.py -q

# Streaming gate: fails unless top-k cursor serving beats full
# materialization >= 5x on a skewed view (and sharded limit=k cursors
# pull at most k tuples per shard, pagination oracle-identical).
bench-stream:
	PYTHONPATH=src REPRO_BENCH_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/bench_streaming_topk.py -q

# Shared-scan gate: fails unless a skewed prefix-sharing batch serves
# >= 3x faster through open_batch than request-at-a-time cursors (and
# batch answers stay oracle-identical on every backend).
bench-batch:
	PYTHONPATH=src REPRO_BENCH_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/bench_shared_scan.py -q

# Resharding gate: fails unless splitting one hot shard live beats a
# full (n+1)-shard reshard >= 1.3x (and cursors opened before the split
# drain oracle-identical, with only the hot shard's keys moving).
bench-reshard:
	PYTHONPATH=src REPRO_BENCH_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/bench_resharding.py -q

# Adaptive-tuning gate: fails unless closed-loop τ re-tuning serves a
# skew-shifting stream >= 1.2x faster than the static τ it started
# from (answers bit-identical, decisions actually made).
bench-adapt:
	PYTHONPATH=src REPRO_BENCH_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/bench_adaptive_tuning.py -q

# Columnar-kernel gate: fails unless the array-backed enumeration
# kernel serves a full-enumeration + top-k mixed workload >= 3x faster
# than the reference tuple-at-a-time path (answers oracle-identical,
# kernel on vs. off over the same structures).
bench-kernel:
	PYTHONPATH=src REPRO_BENCH_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/bench_columnar_kernel.py -q

# Dynamic-serving gate: fails unless delta-aware serving of a mixed
# update+query stream beats rebuild-per-update >= 2x (answers
# bit-identical to the exact per-version recompute, and a replica
# converges through both delta shipping and the snapshot fallback).
bench-dynamic:
	PYTHONPATH=src REPRO_BENCH_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/bench_dynamic_serving.py -q

# Repository-benchmark smoke: every workload BENCHMARK.json declares,
# for one second, untraced. perfbench/run.py exits non-zero when an
# operation failed or an answer differs from the hash-join oracle, which
# fails this target.
perfbench-smoke:
	workloads=$$($(PYTHON) -c "import json; print(' '.join(w['name'] \
		for w in json.load(open('BENCHMARK.json'))['workloads']))") \
		&& [ -n "$$workloads" ] || exit 1; \
	for workload in $$workloads; do \
		$(PYTHON) perfbench/run.py --workload $$workload --seed 1 \
			--seconds 1 --trace 0 || exit 1; \
	done

# Perf-trajectory gate: folds every gate's recorded speedup into one
# $(TRAJECTORY) artifact and fails if any gate fell below its pinned
# floor or fewer than $(GATE_COUNT) gates reported. Run after the other
# bench targets (they write the per-gate records).
bench-trend:
	$(PYTHON) benchmarks/check_trend.py $(BENCH_DIR) $(TRAJECTORY) $(GATE_COUNT)

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ -q

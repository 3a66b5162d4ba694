# Convenience targets — everything is plain pytest underneath.

.PHONY: install test lint bench bench-smoke bench-trend obs-smoke service-smoke resilience-smoke serve-smoke stream-smoke cache-smoke perfbench-smoke figures coverage examples artifacts fuzz clean

# mypy strict seed set — expand alongside docs/STATIC_ANALYSIS.md
MYPY_STRICT_FILES = \
	src/repro/errors.py \
	src/repro/rle/run.py \
	src/repro/rle/row.py \
	src/repro/core/api.py \
	src/repro/core/native.py \
	src/repro/core/options.py \
	src/repro/service/cache.py \
	src/repro/service/batcher.py \
	src/repro/service/service.py \
	src/repro/service/lifecycle.py \
	src/repro/service/shard.py \
	src/repro/service/resilience.py \
	src/repro/service/stream.py \
	src/repro/service/store.py

install:
	pip install -e '.[test]'

test:
	pytest tests/ -q

# rlelint (RLE001-RLE005 + the RLE101-RLE105 concurrency family, see
# docs/STATIC_ANALYSIS.md) + the mypy strict typing gate on the seed
# modules.  mypy is skipped with a notice when not installed
# (pip install -e '.[lint]').
lint:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro lint src/repro
	@if python -c "import mypy" >/dev/null 2>&1; then \
		mypy --strict $(MYPY_STRICT_FILES); \
	else \
		echo "mypy not installed — skipping strict typing gate (pip install -e '.[lint]')"; \
	fi

bench:
	pytest benchmarks/ --benchmark-only -q

# tiny-config engine bench: fails if the batched engine's results
# diverge from the sequential baseline (no timing, no artifacts)
bench-smoke:
	REPRO_BENCH_SMOKE=1 pytest benchmarks/bench_engines.py -q --benchmark-disable

# perf trend gate: diff the regenerated results/*.json artifacts
# against the committed baselines and fail on >15% regressions in the
# bad direction (run `make bench` first to regenerate)
bench-trend:
	python benchmarks/trend.py --threshold 0.15

# observability smoke: run `repro profile` on a small Figure-5 workload
# with schema validation on, pin the null-tracer overhead bounds, then
# bring up a 2-worker sharded server over TCP and gate on the health
# op, a stitched cross-process trace (one request id spanning >= 2
# process lanes) and structured-log schema validity via --selftest
# (see docs/OBSERVABILITY.md)
obs-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro profile \
		--rows 16 --width 500 --out-dir results/profile --validate
	REPRO_BENCH_SMOKE=1 PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		pytest benchmarks/bench_obs_overhead.py -q --benchmark-disable
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro serve \
		--frames 4 --passes 2 --height 32 --width 48 \
		--workers 2 --listen 127.0.0.1:0 --selftest

# service smoke: replay a synthetic clip through the cached DiffService
# and gate on the cache hit rate (repeated frames must mostly hit), then
# run the service benchmark in smoke mode (cache-identity + hit-rate
# assertions, no timing)
service-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro serve \
		--frames 8 --passes 4 --min-hit-rate 0.9
	REPRO_BENCH_SMOKE=1 PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		pytest benchmarks/bench_service.py -q --benchmark-disable

# resilience smoke: chaos-injected serve run (typed errors only, no
# shed requests allowed at this fault rate), then the resilience bench
# gates in smoke mode (wrapper overhead + availability under chaos)
resilience-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro serve \
		--frames 8 --passes 2 --resilient --chaos-rate 0.1 \
		--chaos-seed 7 --max-shed 0 --min-availability 0.9
	REPRO_BENCH_SMOKE=1 PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		pytest benchmarks/bench_resilience.py -q --benchmark-disable

# sharded-tier smoke: bring up a 2-worker front-end on an ephemeral
# port, round-trip the clip through the TCP client (byte-identity vs a
# local DiffService, merged metrics == summed worker stats, hit-rate
# gate), repeat with 2048x2048 frames (request lines over 64 KiB, so
# they need MAX_REQUEST_LINE), then run the sharded benchmark gates in
# smoke mode (see docs/SERVING.md)
serve-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro serve \
		--frames 6 --passes 2 --workers 2 --listen 127.0.0.1:0 \
		--selftest --min-hit-rate 0.4
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro serve \
		--frames 3 --passes 1 --height 2048 --width 2048 --workers 2 \
		--listen 127.0.0.1:0 --selftest
	REPRO_BENCH_SMOKE=1 PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		pytest benchmarks/bench_service.py -q --benchmark-disable \
		-k "Sharded"

# streaming smoke: 2-worker TCP stream selftest on the motion workload
# (gates decode byte-identity and that at least one adaptive keyframe
# rekey occurred), then the streaming benchmark gates in smoke mode
# (bytes-on-wire advantage >= 1.5x vs per-frame diffs, decode identity)
stream-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro serve \
		--stream --frames 10 --passes 2 --height 64 --width 64 \
		--rekey-ratio 0.8 --workers 2 --listen 127.0.0.1:0 --selftest
	REPRO_BENCH_SMOKE=1 PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		pytest benchmarks/bench_stream.py -q --benchmark-disable

# persistent-cache smoke: populate a cache dir, restart as a fresh OS
# process, and gate on serving the identical clip entirely from disk —
# single-process and 2-worker sharded (per-worker store partitions) —
# then the warm-restart bench gates in smoke mode (cold/warm process
# byte-identity + warmth, no timing).  See docs/API.md "Persistent
# cache".
CACHE_SMOKE_DIR := .cache-smoke
cache-smoke:
	rm -rf $(CACHE_SMOKE_DIR)
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro serve \
		--frames 6 --passes 2 --height 48 --width 48 \
		--cache-dir $(CACHE_SMOKE_DIR)/single
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro serve \
		--frames 6 --passes 2 --height 48 --width 48 \
		--cache-dir $(CACHE_SMOKE_DIR)/single --min-hit-rate 0.99
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro serve \
		--frames 6 --passes 2 --height 48 --width 48 --workers 2 \
		--cache-dir $(CACHE_SMOKE_DIR)/sharded
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro serve \
		--frames 6 --passes 2 --height 48 --width 48 --workers 2 \
		--cache-dir $(CACHE_SMOKE_DIR)/sharded --min-hit-rate 0.99
	REPRO_BENCH_SMOKE=1 PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		pytest benchmarks/bench_service.py -q --benchmark-disable \
		-k "Persistent"
	rm -rf $(CACHE_SMOKE_DIR)

# benchmark smoke: short runs of the repository benchmark
# (perfbench/, see BENCHMARK.json): fig5-strip traced, unique-rows
# untraced, and motion-stream traced, whose replay drives the worker
# service stack (ResilientDiffService, its cache and stream sessions)
# in process.  Every output is checked against a NumPy bitmap XOR of
# the inputs, so a wrong result exits 1; timings are printed, not gated
perfbench-smoke:
	python3 perfbench/run.py --workload fig5-strip --seed 1 --seconds 2 --trace 1
	python3 perfbench/run.py --workload unique-rows --seed 1 --seconds 2 --trace 0
	python3 perfbench/run.py --workload motion-stream --seed 1 --seconds 2 --trace 1

# regenerate results/FIGURES.md (every figure/table in one document)
# from the committed machine-readable artifacts — no benchmarks run;
# also fails on unregistered orphan files in results/
figures:
	python benchmarks/figures.py

# line coverage over the service layer, gated at 90% (pytest-cov ships
# in the [test] extra; skipped with a notice when not installed)
coverage:
	@if python -c "import pytest_cov" >/dev/null 2>&1; then \
		pytest tests/service/ -q --cov=repro.service \
			--cov-report=term-missing --cov-fail-under=90; \
	else \
		echo "pytest-cov not installed — skipping coverage gate (pip install -e '.[test]')"; \
	fi

# regenerate every paper artifact into results/
artifacts: bench
	@ls -1 results/

examples:
	@for example in examples/*.py; do \
		echo "== $$example"; python $$example > /dev/null || exit 1; \
	done; echo "all examples OK"

fuzz:
	HYPOTHESIS_PROFILE=thorough pytest tests/core tests/rle -q

clean:
	rm -rf results .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +

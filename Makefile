# Convenience targets for the Horse reproduction.

.PHONY: install test lint lint-sim typecheck check bench bench-quick telemetry-gate perfbench-check sweep-smoke shard-smoke wire-smoke examples clean

install:
	pip install -e . || python setup.py develop

# With pytest-cov available (CI installs the dev extras) the suite runs
# under coverage and tools/check_coverage.py enforces the floor on
# src/repro/hybrid/; without it (the sandboxed test image) the suite
# runs plain so `make test` never depends on an uninstalled plugin.
test:
	@if python -c "import pytest_cov" >/dev/null 2>&1; then \
		mkdir -p build && \
		pytest tests/ --cov=repro --cov-report=term \
			--cov-report=json:build/coverage.json && \
		python tools/check_coverage.py build/coverage.json; \
	else \
		echo "pytest-cov not installed; running without coverage"; \
		pytest tests/; \
	fi

# lint/typecheck degrade to a notice when the tool is not installed
# (the sandboxed test image ships the runtime deps only; CI installs
# the dev extras).
lint:
	@command -v ruff >/dev/null 2>&1 \
		&& ruff check src \
		|| echo "ruff not installed; skipping (pip install -e .[dev])"
	python tools/check_api_surface.py
	$(MAKE) lint-sim

# Simulation-correctness linter (determinism / snapshot-safety /
# telemetry-guard / private-access / handler hygiene): must stay clean
# against the shipped (empty) baseline.
lint-sim:
	mkdir -p build
	PYTHONPATH=src python -m repro lint src/repro \
		--baseline tools/lint-baseline.json --format sarif \
		--output build/lint.sarif --strict

typecheck:
	@command -v mypy >/dev/null 2>&1 \
		&& mypy src/repro \
		|| echo "mypy not installed; skipping (pip install -e .[dev])"

check: lint typecheck test

bench:
	pytest benchmarks/ --benchmark-only

bench-quick:
	pytest benchmarks/bench_e1_scale_topology.py benchmarks/bench_e3_accuracy.py --benchmark-only

# Disabled telemetry must cost <5% on the hot path (vs BENCH_e2.json).
telemetry-gate:
	python -m benchmarks.telemetry_gate

# Repository benchmark outcome gate: one short untraced run per
# workload must reproduce every pinned flow outcome (perfbench/reference)
# with no failed operations.  Timings are not judged here.
PERFBENCH_WORKLOADS = ixp_replay reactive_learning hybrid_packets

perfbench-check:
	@for workload in $(PERFBENCH_WORKLOADS); do \
		echo "== perfbench $$workload"; \
		python3 perfbench/run.py --workload $$workload \
			--seed 1 --seconds 1 --trace 0 | tail -n 1 | python3 -c \
			"import json, sys; r = json.loads(sys.stdin.read()); \
			ok = r['correct'] is True and r['failed'] == 0; \
			print('correct=%s failed=%s attempted=%s' % (r['correct'], r['failed'], r['attempted'])); \
			sys.exit(0 if ok else 1)" || exit 1; \
	done

# Crash-isolation smoke: a 4-job sweep on 2 workers with one injected
# worker crash must retry the job and still complete 4/4.
sweep-smoke:
	rm -rf .sweep-smoke
	python -m repro sweep examples/scenarios/sweep_smoke.json \
		--out .sweep-smoke --workers 2
	@python -c "import json; \
		r = json.load(open('.sweep-smoke/report.json')); \
		assert r['execution']['retried'] == [2], r['execution']; \
		assert not r['summary']['failed'], r['summary']; \
		print('sweep-smoke: crash retried, 4/4 jobs completed')"

# Sharded-runtime smoke: k=1 must reproduce the committed golden
# digests bit for bit, and a k=4 run with one injected shard crash
# must restart the shard and finish with results identical to a clean
# k=4 run.
shard-smoke:
	python tools/shard_smoke.py

# External control-plane smoke: `repro serve` + `repro wire-client` in
# separate processes over a real TCP socket; asserts clean shutdown
# (wire.active_connections 0) and full delivery.
wire-smoke:
	python tools/wire_smoke.py

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		python $$script || exit 1; \
	done

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks .sweep-smoke build
	rm -f lint.sarif .coverage coverage.json coverage.xml
	find . -name __pycache__ -type d -exec rm -rf {} +

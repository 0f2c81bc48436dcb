export PYTHONPATH := src

PYTHON ?= python

.PHONY: test lint lint-json gradcheck bench bench-check bench-save perfbench-test smoke-infer smoke-simhw smoke-dataset smoke-train check

test:
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) -m repro.analysis.lint src/ tests/ benchmarks/

lint-json:
	$(PYTHON) -m repro.analysis.lint --format json src/ tests/ benchmarks/

gradcheck:
	$(PYTHON) -m pytest -x -q -m gradcheck

# pytest.ini disables pytest-benchmark's timing rounds for tier-1;
# this target turns them back on.
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-enable --benchmark-only

# Wall-clock perf floors (speedup ratios, time budgets): the tests marked
# bench_check, which pytest.ini deselects from tier-1 because load makes
# them fail.  Not part of `make check`; CI runs it as its own job.
bench-check:
	$(PYTHON) -m pytest benchmarks -q -m bench_check

# Every benchmark scenario (~3 min): rewrites the BENCH_*.json files.
bench-save:
	$(PYTHON) benchmarks/save.py

# perfbench's own tests (~10 s): its helpers, a tiny run of every
# workload, and test_instrument_patches_resolve, which fails as soon as a
# function the per-layer trace patches is renamed or moved.
perfbench-test:
	$(PYTHON) -m pytest perfbench -q

# ~2 s end-to-end serving smoke: propose -> verify -> featurize ->
# predict -> top-k, asserting predict bit-identical to the taped forward
# on the featurized batch at the smoke model's geometry and at the
# default TLPModelConfig() (hidden 256, 8 heads) that search serves.
smoke-infer:
	$(PYTHON) -c "import repro.core.scoring as s; raise SystemExit(s.main())"

# Simulated-hardware smoke: measure a candidate batch on all 7 platforms,
# asserting bit-reproducibility and sane labels (also runnable directly
# as `python -m repro.simhw.measure`).
smoke-simhw:
	$(PYTHON) -c "import importlib; raise SystemExit(importlib.import_module('repro.simhw.measure').main([]))"

# Dataset-factory smoke: build the tiny 2-platform, multi-shard store
# twice, asserting bit-identical shards + manifest and a readable
# network-level split (also runnable as `python -m repro.dataset.pipeline`).
smoke-dataset:
	$(PYTHON) -c "import importlib; raise SystemExit(importlib.import_module('repro.dataset.pipeline').main([]))"

# Offline-trainer smoke (~15 s): build the tiny 5-network store, train the
# small TLP model twice from scratch, asserting a bit-identical run digest,
# decreasing loss, and held-out top-5 above the exact random baseline
# (also runnable as `python -m repro.core.trainer`).
smoke-train:
	$(PYTHON) -c "import importlib; raise SystemExit(importlib.import_module('repro.core.trainer').main())"

check: lint test gradcheck perfbench-test smoke-infer smoke-simhw smoke-dataset smoke-train

# One-word entry points for the tier-1 verify, the benchmarks and the
# docs checks. Everything runs from the repo root with src/ on the path;
# no installation required. See README.md "Make targets".

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint lint-baseline bench bench-table bench-smoke bench-paper bench-pairs perfbench-smoke chaos-smoke obs-smoke fleet-smoke docs quickstart serve-demo

## tier-1 verify: the full unit/property/integration suite
test:
	$(PYTHON) -m pytest -x -q

## project linter (docs/static_analysis.md): planted-violation
## self-check, then the tree against tools/lint_baseline.json
lint:
	$(PYTHON) tools/lint_smoke.py

## regenerate the lint baseline deterministically (stable sort,
## repo-relative paths); review the diff before committing it
lint-baseline:
	$(PYTHON) -m repro.analysis --write-baseline

## core-kernel throughput microbenchmarks (fused vs reference engines)
bench:
	$(PYTHON) -m pytest benchmarks/bench_throughput.py -q --benchmark-only \
		--benchmark-min-rounds=15 --benchmark-warmup=on

## full scenario grid -> run_table.csv, the one measurement record
bench-table:
	$(PYTHON) -m repro.experiments harness full --table run_table.csv

## seconds-scale scenario grid (the CI harness-smoke job)
bench-smoke:
	$(PYTHON) -m repro.experiments harness smoke --table run_table.csv

## regenerate every paper table/figure (REPRO_PROFILE=full for paper scale)
bench-paper:
	$(PYTHON) -m pytest benchmarks -q

## alternating base/change pairs of the BENCHMARK.json benchmark: medians,
## change/base ratios, metrics past their bound (BASE, required, is the
## commit the change is built on)
PAIRS ?= 5
BENCH_SECONDS ?= 30
WORKLOAD ?= stream-saturate
bench-pairs:
	@test -n "$(BASE)" || { echo "set BASE=<base commit>" >&2; exit 2; }
	$(PYTHON) tools/bench_pairs.py --base $(BASE) --pairs $(PAIRS) \
		--seconds $(BENCH_SECONDS) --workload $(WORKLOAD)

## benchmark self-test (perfbench/, BENCHMARK.json): result schema, the
## bitwise-serving and gradient checks catch planted corruptions
perfbench-smoke:
	$(PYTHON) -m pytest perfbench/smoke.py -q

## fault-injection gates: pool bitwise self-healing + chaos availability
chaos-smoke:
	$(PYTHON) tools/chaos_smoke.py --table run_table.csv

## telemetry gates: trace schema, exporter parsing, overhead <= 5%
obs-smoke:
	$(PYTHON) tools/obs_smoke.py --trace-dir traces

## fleet gates: 1-replica equivalence, tenant isolation, canary rollout
fleet-smoke:
	$(PYTHON) tools/fleet_smoke.py --table run_table.csv --trace-dir traces/fleet

## verify the documentation: README/docs exist and their local links resolve
docs:
	$(PYTHON) tools/check_docs.py

## end-to-end smoke: train the temporal-order quickstart task
quickstart:
	$(PYTHON) examples/quickstart.py

## boot the model server from a registry checkpoint, stream one SHD sample
serve-demo:
	$(PYTHON) examples/serve_demo.py

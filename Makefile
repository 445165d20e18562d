# Developer entry points.  PYTHONPATH is injected so no install is needed.

PYTHON ?= python
PYTHONPATH_SRC := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-fast lint bench bench-smoke bench-gf2 bench-elimlin bench-cnf bench-portfolio bench-cube bench-server bench-obs

# Tier-1 verification: the full unit/integration suite.
test:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest -x -q

# Static analysis: the AST invariant linter (src + benchmarks; stdlib
# only, runs in seconds).  Exit 0 clean, 1 findings; one line per
# finding, then a tally.  See README "Static analysis" for the rules
# and the suppression pragma.
lint:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.analysis

# Developer inner loop: everything except the `slow`-marked
# cipher-scale tests (see pytest.ini).
test-fast:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest -x -q -m "not slow"

# Full benchmark run (slow; honours REPRO_BENCH_COUNT / REPRO_BENCH_TIMEOUT).
bench:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest benchmarks/bench_*.py --benchmark-only -q

# Perf smoke: run every benchmark file once with tiny parameters and the
# timing machinery disabled.  Catches regressions (crashes, pathological
# slowdowns, broken assertions) in the hot paths without a full run.
bench-smoke:
	REPRO_BENCH_COUNT=1 REPRO_BENCH_TIMEOUT=2 \
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest benchmarks/bench_*.py -q --benchmark-disable

# The GF(2) kernel perf claim: the Four-Russians `rref` >=3x over the
# verbatim seed Gauss-Jordan (the `rref_gj` oracle in tests/oracles/)
# on the real Simon32-XL linearisation, bit-for-bit identical output.
# REPRO_BENCH_COUNT>=2 arms the ratio assertion.
bench-gf2:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest benchmarks/bench_solver_core.py \
		-q --benchmark-only -k "gf2_rref"

# The mask-native XL/ElimLin perf claim (>=3x on the to_matrix /
# _occurrence_counts paths at cipher scale, against the seed codecs and
# eliminator in tests/oracles/), timed and asserted.
# REPRO_BENCH_COUNT>=2 arms the ratio assertions.
bench-elimlin:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest benchmarks/bench_solver_core.py \
		-q --benchmark-only -k "elimlin_wide or xl_wide"

# The mask-native ANF→CNF perf claim (>=3x on the isolated
# truth-table/convert path at Simon32 scale) plus the bit-for-bit
# differential vs the scalar converter in tests/oracles/ on Simon/Speck.
# REPRO_BENCH_COUNT>=2 arms the ratio assertion.
bench-cnf:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest benchmarks/bench_anf_to_cnf.py \
		-q --benchmark-only

# The portfolio claim: the backend conformance suite and the cancel-latency
# tests, then batch-mode run_family on the satcomp smoke suite beating the
# sequential path on wall-clock (speedup assertion armed on >=2 CPUs with
# REPRO_BENCH_COUNT>=2; verdict soundness always checked).  The engine/
# batch test files are covered by `make test` and not repeated here.
bench-portfolio:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest tests/test_portfolio_backends.py \
		tests/test_cancel_latency.py -q
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest benchmarks/bench_portfolio.py \
		-q --benchmark-only

# The cube-and-conquer claim: splitter/scheduler correctness tests and
# the fan-out engine's tests (the conquest's verdict rule, `arbitrate`,
# lives in portfolio/engine.py), then the cubed UNSAT Simon refutation
# beating the uncubed solver on wall-clock (speedup assertion armed on
# >=2 CPUs with REPRO_BENCH_COUNT>=2; verdict soundness always checked).
bench-cube:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest tests/test_cube_splitter.py \
		tests/test_cube_conquer.py tests/test_cube_chains.py \
		tests/test_portfolio_engine.py -q
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest benchmarks/bench_cube.py \
		-q --benchmark-only

# The solver-service claim: server pool/cache/protocol tests, then
# protocol-level throughput scaling with workers (speedup assertion
# armed on >=2 CPUs with REPRO_BENCH_COUNT>=2) and the warm persistent
# cache beating cold with zero reconversions and bit-for-bit identical
# CNF (always asserted — it is determinism, not timing).
bench-server:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest tests/test_server_cache.py \
		tests/test_server_pool.py tests/test_server_e2e.py -q
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest benchmarks/bench_server.py \
		-q --benchmark-only

# The observability claim: tracer/metrics unit + fork-boundary tests,
# then the overhead pin — the always-on instrumentation costs < 2% of
# the Simon satlearn loop when tracing is off (ratio armed with
# REPRO_BENCH_COUNT>=2), and a traced run exports a schema-valid
# JSON-lines trace (always asserted).
bench-obs:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest tests/test_obs.py -q
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest benchmarks/bench_obs.py \
		-q --benchmark-only

"""Observability overhead: tracing off must be (near) free.

Two claims behind ``make bench-obs``:

* **tracing-off overhead < 2%** on the Simon satlearn loop — the
  production paths are permanently instrumented, so the cost of the
  default ``NULL_TRACER`` path must be noise.  Measured directly: a
  traced run of the same workload counts how many spans the loop
  actually opens, a microbench prices that many null-span
  enter/set/exit cycles, and the total null cost must be under 2% of
  the tracing-off wall time.  The ratio assertion arms with
  ``REPRO_BENCH_COUNT >= 2`` (the smoke run still exercises both
  paths and checks the verdicts agree).
* **a traced run emits a valid trace** — the JSON-lines export parses
  line-by-line and passes the frozen span schema
  (:func:`repro.obs.validate_spans`), and ``result.stats`` stays
  schema-clean with tracing on.  This asserts unconditionally: it is
  determinism, not timing.
"""

import json
import time

from repro.ciphers import simon
from repro.core import Bosphorus
from repro.obs import (
    NULL_TRACER,
    Tracer,
    undeclared_stats_keys,
    validate_spans,
)

from .conftest import bench_count, fast_config


def _workload():
    """One deterministic Simon satlearn instance (paper's Table II family,
    scaled down to the pure-Python solver)."""
    inst = simon.generate_instance(2, 4, seed=7)
    return inst.ring, inst.polynomials


def _run(tracer=None):
    ring, polys = _workload()
    t0 = time.monotonic()
    result = Bosphorus(fast_config(), tracer=tracer).preprocess_anf(
        ring, polys
    )
    return time.monotonic() - t0, result


def _null_span_cost(n_spans):
    """Wall seconds spent on `n_spans` null enter/set/exit cycles —
    the whole per-span cost the instrumentation adds when tracing is
    off (attribute writes included)."""
    t0 = time.monotonic()
    for _ in range(n_spans):
        with NULL_TRACER.span("bench", phase="off") as span:
            span.set("facts", 0)
            span.add("hits", 1)
    return time.monotonic() - t0


def test_tracing_off_overhead_under_two_percent(benchmark):
    # Tracing off: the production default (NULL_TRACER throughout).
    off_s, off_result = benchmark.pedantic(
        _run, rounds=1, iterations=1
    )

    # Tracing on: same workload, real tracer — counts the spans the
    # loop opens and pins that the verdicts agree.
    tracer = Tracer()
    on_s, on_result = _run(tracer=tracer)
    spans = tracer.spans()
    assert on_result.status == off_result.status
    assert len(spans) >= 3  # the loop is actually instrumented

    null_s = _null_span_cost(len(spans))
    overhead = null_s / off_s if off_s > 0 else 0.0
    benchmark.extra_info["spans"] = len(spans)
    benchmark.extra_info["off_s"] = round(off_s, 4)
    benchmark.extra_info["on_s"] = round(on_s, 4)
    benchmark.extra_info["null_overhead"] = round(overhead, 6)
    if bench_count() >= 2:
        assert overhead < 0.02


def test_traced_run_emits_valid_jsonl(benchmark, tmp_path):
    path = tmp_path / "trace.jsonl"
    ring, polys = _workload()
    tracer = Tracer()
    result = benchmark.pedantic(
        lambda: Bosphorus(fast_config(), tracer=tracer).preprocess_anf(
            ring, polys
        ),
        rounds=1,
        iterations=1,
    )
    tracer.export(str(path))

    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert spans
    validate_spans(spans)  # frozen schema, unique ids
    names = {s["name"] for s in spans}
    assert "bosphorus.preprocess" in names
    assert "satlearn.iteration" in names
    # Stats stay schema-clean with tracing on.
    assert undeclared_stats_keys(result.stats) == []

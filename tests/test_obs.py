"""The observability layer: tracer/metrics units, exporters, and the
fork-boundary guarantees (the parent records one span per cube a worker
reported, over the window the worker measured — including across
dead-worker respawns)."""

import json
import time

import pytest

from repro.anf import parse_system
from repro.core import Bosphorus, Config, STATUS_SAT
from repro.cube import CubeConqueror
from repro.obs import (
    MetricsRegistry,
    NULL_TRACER,
    Tracer,
    validate_span,
    validate_spans,
    write_chrome_trace,
    write_jsonl,
)
from repro.portfolio import CdclBackend, PortfolioRunner, SolverBackend
from repro.sat import parse_dimacs

PAPER_EXAMPLE = """
x1*x2 + x3 + x4 + 1
x1*x2*x3 + x1 + x3 + 1
x1*x3 + x3*x4*x5 + x3
x2*x3 + x3*x5 + 1
x2*x3 + x5 + 1
"""


def sat_micro():
    return parse_dimacs("p cnf 3 3\n1 2 0\n-1 2 0\n-2 3 0\n")


class DyingBackend(SolverBackend):
    """Kills its own worker process mid-solve (module-level: the engine
    pickles backends into workers)."""

    name = "dying"

    def solve(self, formula, conflict_budget=None, stop=None,
              assumptions=None):
        import os

        time.sleep(0.2)
        os._exit(17)


# -- Tracer -----------------------------------------------------------------


def test_span_nesting_builds_parentage():
    tracer = Tracer()
    with tracer.span("outer", kind="test") as outer:
        with tracer.span("inner") as inner:
            assert tracer._stack()[-1] == inner.id
        assert tracer._stack()[-1] == outer.id
    spans = tracer.spans()
    assert [s["name"] for s in spans] == ["inner", "outer"]  # exit order
    by_name = {s["name"]: s for s in spans}
    assert by_name["outer"]["parent"] is None
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["attrs"] == {"kind": "test"}
    validate_spans(spans)


def test_span_set_and_add_attributes():
    tracer = Tracer()
    with tracer.span("work") as span:
        span.set("facts", 3)
        span.add("hits", 2)
        span.add("hits", 5)
    (data,) = tracer.spans()
    assert data["attrs"] == {"facts": 3, "hits": 7}
    assert data["dur"] >= 0


def test_out_of_order_exit_self_heals():
    tracer = Tracer()
    outer = tracer.span("outer")
    inner = tracer.span("inner")  # never exited explicitly
    outer.__exit__(None, None, None)  # leaks `inner`; stack must unwind
    assert tracer._stack() == []
    with tracer.span("next") as nxt:
        assert nxt.id != inner.id
    assert tracer.spans()[-1]["parent"] is None


def test_span_ids_are_unique_across_tracers():
    a, b = Tracer(), Tracer()
    with a.span("x"):
        pass
    with b.span("x"):
        pass
    ids = {s["id"] for s in a.spans()} | {s["id"] for s in b.spans()}
    assert len(ids) == 2


def test_null_tracer_is_inert_and_shared():
    assert NULL_TRACER.enabled is False
    span = NULL_TRACER.span("anything", attr=1)
    assert span is NULL_TRACER.span("other")  # one shared inert object
    with span as s:
        s.set("k", "v")
        s.add("n", 1)
    assert span.id is None
    assert NULL_TRACER.spans() == []


# -- MetricsRegistry --------------------------------------------------------


def test_counters_gauges_histograms():
    m = MetricsRegistry()
    m.inc("conversions")
    m.inc("conversions", 4)
    m.observe("solve_s", 0.5)
    m.observe("solve_s", 1.5)
    assert m.counter("conversions") == 5
    assert m.counter("missing") == 0
    snap = m.snapshot()
    assert snap["counters"]["conversions"] == 5
    hist = snap["histograms"]["solve_s"]
    assert hist["count"] == 2
    assert hist["sum"] == pytest.approx(2.0)
    assert hist["min"] == pytest.approx(0.5)
    assert hist["max"] == pytest.approx(1.5)
    json.dumps(snap)  # snapshots are JSON-serialisable


def test_timer_records_a_histogram():
    m = MetricsRegistry()
    with m.timer("step_s"):
        pass
    assert m.snapshot()["histograms"]["step_s"]["count"] == 1


def test_merge_combines_counters_and_histograms():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.inc("jobs", 2)
    a.observe("solve_s", 1.0)
    b.inc("jobs", 3)
    b.observe("solve_s", 3.0)
    a.merge(b)
    a.merge(None)  # tolerated
    assert a.counter("jobs") == 5
    hist = a.snapshot()["histograms"]["solve_s"]
    assert hist == {"count": 2, "sum": 4.0, "min": 1.0, "max": 3.0}


def test_merge_accepts_plain_snapshots():
    a = MetricsRegistry()
    a.merge({"counters": {"jobs": 2},
             "histograms": {"s": {"count": 1, "sum": 2.0,
                                  "min": 2.0, "max": 2.0}}})
    assert a.counter("jobs") == 2
    assert a.snapshot()["histograms"]["s"]["count"] == 1


# -- exporters --------------------------------------------------------------


def _sample_spans():
    tracer = Tracer()
    with tracer.span("root", backends=["a", "b"]):
        with tracer.span("leaf"):
            pass
    return tracer.spans()


def test_write_jsonl_round_trips(tmp_path):
    path = tmp_path / "trace.jsonl"
    spans = _sample_spans()
    write_jsonl(spans, str(path))
    loaded = [json.loads(line) for line in path.read_text().splitlines()]
    validate_spans(loaded)
    assert [s["name"] for s in loaded] == [s["name"] for s in spans]


def test_write_chrome_trace_is_valid(tmp_path):
    path = tmp_path / "trace.json"
    write_chrome_trace(_sample_spans(), str(path))
    payload = json.loads(path.read_text())
    assert payload["displayTimeUnit"] == "ms"
    events = payload["traceEvents"]
    assert {e["name"] for e in events} == {"root", "leaf"}
    for e in events:
        assert e["ph"] == "X"
        assert e["ts"] >= 0 and e["dur"] >= 0
        assert "span_id" in e["args"]
    leaf = next(e for e in events if e["name"] == "leaf")
    root = next(e for e in events if e["name"] == "root")
    assert leaf["args"]["parent"] == root["args"]["span_id"]


def test_validate_span_rejects_malformed():
    with pytest.raises(ValueError):
        validate_span({"id": "x"})
    with pytest.raises(ValueError):
        validate_span("not a dict")
    good = _sample_spans()[0]
    bad = dict(good, dur=-1.0)
    with pytest.raises(ValueError):
        validate_span(bad)
    dup = _sample_spans()
    with pytest.raises(ValueError):
        validate_spans(dup + [dict(dup[0])])


# -- fork boundary: portfolio ----------------------------------------------


def _assert_measured_windows(spans, stats, parent):
    """Every linked row's span is the worker's measured window, inside
    its parent span's, and was recorded for a worker process."""
    by_id = {s["id"]: s for s in spans}
    linked = [row for row in stats if row.span_id is not None]
    assert linked
    for row in linked:
        span = by_id[row.span_id]
        assert span["parent"] == parent["id"]
        assert span["dur"] == row.seconds
        assert parent["t0"] <= span["t0"]
        assert span["t0"] + span["dur"] <= parent["t0"] + parent["dur"]
        assert span["pid"] != parent["pid"]


def test_parallel_race_adopts_every_worker_span_exactly_once():
    tracer = Tracer()
    runner = PortfolioRunner(
        [CdclBackend("minisat"), CdclBackend("cms", seed=2)],
        jobs=2,
        tracer=tracer,
    )
    outcome = runner.run(sat_micro(), timeout_s=10)
    assert outcome.verdict is True
    spans = tracer.spans()
    validate_spans(spans)  # unique ids = no cube recorded twice
    race = next(s for s in spans if s["name"] == "portfolio.race")
    legs = [s for s in spans if s["name"] == "portfolio.backend"]
    assert len(legs) == 2  # one leg per backend, exactly once
    assert {leg["attrs"]["backend"] for leg in legs} == {"minisat", "cms@2"}
    for leg in legs:
        assert leg["parent"] == race["id"]  # stitched under the race
        assert leg["pid"] != race["pid"]  # recorded in the worker
    # Stats rows link into the trace through the leg span ids.
    leg_ids = {leg["id"] for leg in legs}
    assert {row.span_id for row in outcome.stats} == leg_ids
    _assert_measured_windows(spans, outcome.stats, race)


def test_sequential_race_records_leg_spans_parent_side():
    tracer = Tracer()
    runner = PortfolioRunner(
        [CdclBackend("minisat"), CdclBackend("cms")], jobs=1, tracer=tracer
    )
    outcome = runner.run(sat_micro(), timeout_s=10)
    assert outcome.verdict is True
    spans = tracer.spans()
    legs = [s for s in spans if s["name"] == "portfolio.backend"]
    assert len(legs) == 1  # first win cancels the second before it runs
    assert outcome.stats[0].span_id == legs[0]["id"]


def test_dead_worker_race_still_yields_one_clean_trace():
    """A backend that hard-kills its worker contributes no spans; the
    survivor's span is recorded exactly once and the trace stays
    well-formed."""
    tracer = Tracer()
    runner = PortfolioRunner(
        [CdclBackend("minisat"), DyingBackend()], jobs=2, tracer=tracer
    )
    outcome = runner.run(sat_micro(), timeout_s=10)
    assert outcome.verdict is True
    spans = tracer.spans()
    validate_spans(spans)
    legs = [s for s in spans if s["name"] == "portfolio.backend"]
    assert [leg["attrs"]["backend"] for leg in legs] == ["minisat"]
    dying_row = next(r for r in outcome.stats if r.backend == "dying")
    assert dying_row.span_id is None


# -- fork boundary: cube-and-conquer ---------------------------------------


def test_cube_conquest_traces_every_cube_exactly_once():
    tracer = Tracer()
    conqueror = CubeConqueror(
        [CdclBackend("minisat")], jobs=2, depth=2, tracer=tracer
    )
    outcome = conqueror.run(sat_micro(), timeout_s=10)
    assert outcome.verdict is True
    spans = tracer.spans()
    validate_spans(spans)
    conquer = next(s for s in spans if s["name"] == "cube.conquer")
    assert any(s["name"] == "cube.split" for s in spans)
    cube_spans = [s for s in spans if s["name"] == "cube.solve"]
    # One span per conquered cube, each recorded exactly once.
    indices = [s["attrs"]["index"] for s in cube_spans]
    assert len(indices) == len(set(indices))
    assert len(cube_spans) == len(
        [r for r in outcome.stats if r.span_id is not None]
    )
    for s in cube_spans:
        assert s["parent"] == conquer["id"]
    # Stats rows carry the cube span ids.
    linked = {r.span_id for r in outcome.stats if r.span_id}
    assert linked == {s["id"] for s in cube_spans}
    _assert_measured_windows(spans, outcome.stats, conquer)


def test_cube_dead_worker_respawn_keeps_spans_exactly_once():
    """The batch layer respawns its pool after a hard worker death and
    re-runs never-started cubes: no cube span may appear twice even when
    the same item is retried across pool generations."""
    tracer = Tracer()
    conqueror = CubeConqueror(
        [CdclBackend("minisat"), DyingBackend()], jobs=2, depth=2,
        tracer=tracer,
    )
    outcome = conqueror.run(sat_micro(), timeout_s=15)
    spans = tracer.spans()
    validate_spans(spans)  # unique ids despite respawn/retry deliveries
    cube_spans = [s for s in spans if s["name"] == "cube.solve"]
    indices = [s["attrs"]["index"] for s in cube_spans]
    assert len(indices) == len(set(indices))  # each cube at most once
    # Dead cubes (error rows) contribute no spans.
    error_rows = [r for r in outcome.stats if r.status == "error"]
    for row in error_rows:
        assert row.span_id is None
    assert len(cube_spans) + len(error_rows) >= outcome.n_cubes


# -- tracing off is the default and changes nothing -------------------------


def test_tracing_off_by_default_everywhere():
    runner = PortfolioRunner([CdclBackend("minisat")], jobs=1)
    outcome = runner.run(sat_micro(), timeout_s=10)
    assert outcome.verdict is True
    assert runner.tracer is NULL_TRACER
    assert all(row.span_id is None for row in outcome.stats)


# -- end-to-end: Bosphorus trace export -------------------------------------


def test_bosphorus_trace_export_chrome(tmp_path):
    path = tmp_path / "run.json"
    ring, polys = parse_system(PAPER_EXAMPLE)
    tracer = Tracer()
    result = Bosphorus(Config(), tracer=tracer).preprocess_anf(ring, polys)
    assert result.status == STATUS_SAT
    tracer.export(str(path))
    payload = json.loads(path.read_text())
    names = {e["name"] for e in payload["traceEvents"]}
    assert "bosphorus.preprocess" in names
    assert "satlearn.iteration" in names
    assert "anf_to_cnf.convert" in names


def test_bosphorus_trace_export_jsonl(tmp_path):
    path = tmp_path / "run.jsonl"
    ring, polys = parse_system(PAPER_EXAMPLE)
    config = Config(use_xl=False, use_elimlin=False, stop_on_solution=False)
    tracer = Tracer()
    Bosphorus(config, tracer=tracer).preprocess_anf(ring, polys)
    tracer.export(str(path))
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    validate_spans(spans)
    names = [s["name"] for s in spans]
    assert "sat.solve" in names  # the in-process inner SAT leg
    assert "conversion.final" in names


# -- server jobs carry spans/metrics across the pickle boundary -------------


def test_execute_job_traced_returns_span_tree():
    from repro.server.jobs import JobSpec, execute_job

    spec = JobSpec(fmt="anf", text="x1 + 1\nx1*x2 + x2", trace=True)
    result = execute_job(spec)
    spans = result["spans"]
    validate_spans(spans)
    by_name = {s["name"]: s for s in spans}
    assert {"server.job", "job.parse", "job.preprocess"} <= set(by_name)
    root = by_name["server.job"]
    assert root["parent"] is None
    assert by_name["job.parse"]["parent"] == root["id"]
    assert result["metrics"]["counters"]["jobs"] == 1


def test_execute_job_untraced_has_metrics_but_no_spans():
    from repro.server.jobs import JobSpec, execute_job

    spec = JobSpec(fmt="anf", text="x1 + 1")
    result = execute_job(spec)
    assert "spans" not in result
    assert result["metrics"]["counters"]["jobs"] == 1


def test_jobspec_rejects_trace_path_override():
    from repro.server.jobs import JobSpec

    spec = JobSpec(fmt="anf", text="x1", config={"trace_path": "/tmp/x"})
    with pytest.raises(ValueError, match="trace_path"):
        spec.validate()

"""BatchScheduler and the parallel Table II path: many instances over a
bounded pool, with verdicts and PAR-2 math identical to the sequential
run (scored under the deterministic unit-time proxy, since wall-clock
seconds are the one thing parallelism legitimately changes).
"""

import gc
import multiprocessing
import os
import threading
import time

import pytest

from repro.core.config import Config
from repro.experiments import par2_score, run_family, satcomp_problems
from repro.experiments.runner import Problem
from repro.portfolio import (
    BatchItemError,
    BatchScheduler,
    batch_cancel,
    default_jobs,
)
from repro.portfolio.batch import WorkerSlots, mp_context

FAST = Config(
    xl_sample_bits=8,
    elimlin_sample_bits=8,
    sat_conflict_start=500,
    sat_conflict_step=500,
    sat_conflict_max=1000,
    max_iterations=2,
)


def _square(x):
    return x * x


def _raise_on_seven(x):
    if x == 7:
        raise ValueError("seven")
    return x


def test_map_preserves_item_order_sequential():
    assert BatchScheduler(1).map(_square, range(10)) == [
        x * x for x in range(10)
    ]


def test_map_preserves_item_order_parallel():
    assert BatchScheduler(3).map(_square, range(20)) == [
        x * x for x in range(20)
    ]


@pytest.mark.parametrize("jobs", [1, 2])
def test_map_captures_worker_exceptions(jobs):
    # Regression: a poison item used to propagate out of future.result()
    # and abort the whole batch, losing every sibling's result.  Now it
    # is captured into a BatchItemError in its own slot.
    results = BatchScheduler(jobs).map(_raise_on_seven, range(10))
    assert len(results) == 10
    err = results[7]
    assert isinstance(err, BatchItemError)
    assert err.index == 7
    assert err.kind == "ValueError"
    assert "seven" in err.error
    for x in range(10):
        if x != 7:
            assert results[x] == x


def _first_sat_probe(x):
    evt = batch_cancel()
    if evt is not None and evt.is_set():
        return ("cancelled", x)
    return ("sat" if x == 3 else "unknown", x)


def test_map_stop_when_cancels_remaining_sequential():
    # The first-win protocol on the deterministic jobs=1 path: once
    # stop_when hits, later items never run and their slots stay None.
    results = BatchScheduler(1).map(
        _first_sat_probe,
        range(8),
        stop_when=lambda r: r[0] == "sat",
    )
    assert [r[0] for r in results[:4]] == ["unknown"] * 3 + ["sat"]
    assert results[4:] == [None] * 4


def test_map_stop_when_parallel_still_returns_every_slot():
    results = BatchScheduler(2).map(
        _first_sat_probe,
        range(8),
        stop_when=lambda r: r[0] == "sat",
    )
    assert len(results) == 8
    assert ("sat", 3) in results
    assert all(
        r is None or r[0] in ("sat", "unknown", "cancelled") for r in results
    )


def test_run_family_poison_problem_degrades_to_unsolved():
    # One pathological instance must not kill the grid: the broken
    # problem (no ring) scores as unsolved-at-timeout, the healthy one
    # still gets its verdict.
    good = satcomp_problems(scale=0.3, per_family=1, seed=5)[:1]
    poison = Problem("poison", "anf", ring=None, polynomials=None)
    out = run_family(
        good + [poison], ("minisat",), timeout_s=10.0, bosphorus_config=FAST,
        jobs=2,
    )
    for runs in out.values():
        assert len(runs) == 2
        good_verdict, _ = runs[0]
        poison_verdict, poison_seconds = runs[1]
        assert good_verdict in (True, False)
        assert poison_verdict is None
        assert poison_seconds == 10.0


def test_single_item_runs_inline():
    assert BatchScheduler(8).map(_square, [5]) == [25]


def test_default_jobs_positive():
    assert default_jobs() >= 1


def test_run_family_empty_problem_list_keeps_grid_keys():
    # Regression: the cell-based rewrite must still emit every
    # (personality, use_bosphorus) key for an empty family — the report
    # layer renders all-zero score lines from them.
    out = run_family([], ("minisat", "cms"), timeout_s=1.0, jobs=1)
    assert set(out) == {(p, b) for p in ("minisat", "cms") for b in (False, True)}
    assert all(runs == [] for runs in out.values())


# -- hard worker death ------------------------------------------------------


def _exit_on_zero(x):
    if x == 0:
        os._exit(1)  # simulate an OOM-kill / hard crash mid-item
    return x * 10


def test_map_isolates_hard_worker_death():
    # Regression: a worker dying mid-item (os._exit, OOM-kill) used to
    # poison the whole pool — BrokenProcessPool failed every pending
    # future, so healthy siblings came back as BatchItemErrors too.  Now
    # the pool is respawned, not-yet-started items re-run, and only the
    # genuinely dead item keeps its error.
    results = BatchScheduler(2).map(_exit_on_zero, range(6))
    assert len(results) == 6
    err = results[0]
    assert isinstance(err, BatchItemError)
    assert err.index == 0
    assert err.kind == "worker-died"
    for x in range(1, 6):
        assert results[x] == x * 10, results


def _exit_or_sleep(x):
    if x == 0:
        time.sleep(0.2)
        os._exit(1)
    time.sleep(1.0)
    return "healthy"


def test_map_death_spares_a_running_sibling():
    # Regression: a healthy item running alongside the one that kills its
    # worker was counted as collateral, retried, and written off as
    # worker-died together with the killer.
    results = BatchScheduler(2).map(_exit_or_sleep, [0, 1])
    assert isinstance(results[0], BatchItemError)
    assert results[0].kind == "worker-died"
    assert results[1] == "healthy"


def _exit_on_multiple_of_five(x):
    if x % 5 == 0:
        os._exit(1)
    return x * 10


def test_map_many_deaths_over_more_slots_than_cores():
    # Stress: four slots on a small machine, every fifth item killing its
    # worker.  Each death costs exactly its own item; everything else
    # comes back, and no worker outlives the map.
    results = BatchScheduler(4).map(_exit_on_multiple_of_five, range(40))
    for x, res in enumerate(results):
        if x % 5 == 0:
            assert isinstance(res, BatchItemError)
            assert res.kind == "worker-died"
        else:
            assert res == x * 10
    assert multiprocessing.active_children() == []


def test_map_sequential_path_unaffected_by_death_machinery():
    # jobs=1 never forks: the poison item would kill the test process
    # itself, so only check the plain path still threads results through.
    assert BatchScheduler(1).map(_square, range(5)) == [
        x * x for x in range(5)
    ]


# -- the frozen inherited heap ----------------------------------------------


def _freeze_count_or_exit(payload, cancel=None, progress=None):
    if payload == "exit":
        os._exit(1)
    return gc.get_freeze_count()


def test_workers_freeze_their_inherited_heap_and_the_parent_does_not():
    # A worker's collector must never walk the heap it inherited, in a
    # first worker and in a respawned one; the parent's collector keeps
    # everything it had.
    assert gc.get_freeze_count() == 0
    slots = WorkerSlots(1, _freeze_count_or_exit)
    counts = []
    try:
        assert gc.get_freeze_count() == 0
        for unit_id, payload in enumerate(["count", "exit", "count"], 1):
            slots.dispatch(0, unit_id, payload)
            while slots.running():
                for kind, _, value in slots.events(timeout=30):
                    if kind == "result":
                        counts.append(value)
    finally:
        slots.close()
    assert slots.respawns == 1
    assert len(counts) == 2
    assert all(count > 0 for count in counts)
    assert gc.get_freeze_count() == 0


# -- default_jobs / mp_context ----------------------------------------------


def test_default_jobs_uses_affinity_mask(monkeypatch):
    # A 2-CPU cgroup quota on a 64-core host must size the pool at 2:
    # sched_getaffinity reflects the quota, cpu_count does not.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert default_jobs() == 2


def test_default_jobs_falls_back_to_cpu_count(monkeypatch):
    def unavailable(pid):
        raise OSError("not supported here")

    monkeypatch.setattr(os, "sched_getaffinity", unavailable, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert default_jobs() == 5


def test_default_jobs_never_below_one(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(), raising=False)
    assert default_jobs() >= 1


def test_mp_context_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_MP_START", "spawn")
    assert mp_context().get_start_method() == "spawn"


def test_mp_context_rejects_unknown_override(monkeypatch):
    monkeypatch.setenv("REPRO_MP_START", "warpdrive")
    with pytest.raises(ValueError, match="warpdrive"):
        mp_context()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or "forkserver" not in multiprocessing.get_all_start_methods(),
    reason="needs both fork and forkserver",
)
def test_mp_context_prefers_forkserver_when_threaded(monkeypatch):
    monkeypatch.delenv("REPRO_MP_START", raising=False)
    # Single-threaded parent: fork stays the default (the determinism
    # tests rely on fork-inherited state shipping).
    assert mp_context().get_start_method() == "fork"
    # With live threads, fork risks inheriting locks mid-acquisition;
    # the context switches to forkserver.
    stop = threading.Event()
    t = threading.Thread(target=stop.wait, daemon=True)
    t.start()
    try:
        assert mp_context().get_start_method() == "forkserver"
    finally:
        stop.set()
        t.join()


# -- parallel Table II ------------------------------------------------------


def _verdict_grid(result):
    return {key: [v for v, _ in runs] for key, runs in result.items()}


def _unit_time_par2(result, timeout):
    """PAR-2 under the deterministic unit-time proxy: solved costs 1.0,
    unsolved the 2x penalty — identical iff the verdicts are identical."""
    return {
        key: par2_score(
            [(v, 1.0) for v, _ in runs], timeout
        ).format()
        for key, runs in result.items()
    }


@pytest.mark.slow
def test_parallel_run_family_matches_sequential():
    problems = satcomp_problems(scale=0.35, per_family=1, seed=3)[:4]
    timeout = 20.0
    personalities = ("minisat", "cms")
    sequential = run_family(
        problems, personalities, timeout, FAST, jobs=1
    )
    parallel = run_family(
        problems, personalities, timeout, FAST, jobs=2
    )
    assert set(sequential) == set(parallel) == {
        (p, b) for p in personalities for b in (False, True)
    }
    assert _verdict_grid(sequential) == _verdict_grid(parallel)
    assert _unit_time_par2(sequential, timeout) == _unit_time_par2(
        parallel, timeout
    )
    # Every run is shaped (verdict, seconds) for par2_score either way.
    for runs in parallel.values():
        assert len(runs) == len(problems)
        for verdict, seconds in runs:
            assert verdict in (True, False, None)
            assert seconds >= 0.0

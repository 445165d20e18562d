"""One fault model for every fan-out.

The portfolio race, ``BatchScheduler.map``, cube conquest and a
``WorkerPool`` job all run on the same worker slots, so each gets the
same faults injected into one unit beside a healthy sibling:

* ``raise`` — the unit raises;
* ``exit`` — the worker process exits hard (``os._exit``; a server job's
  external solver sends its worker SIGTERM);
* ``sigkill`` — the worker is SIGKILLed mid-unit;
* ``sigkill-mid-write`` — the worker is SIGKILLed while writing a
  multi-megabyte result the parent is not reading yet (the parent is
  held up in the sibling's ``stop_when`` or validator, or in the faulty
  job's own progress callback);
* ``hang`` — the unit runs past its deadline and stops only when
  cancelled;
* ``cancel`` — a cooperative unit is cancelled (for the maps: the
  sibling's first win cancels it, and in the race and the batch a third
  unit never starts).

Each case asserts three things: the faulty unit gets an error, timeout
or cancelled row; the sibling's verdict is what it is without the
fault; and no worker process outlives the call.
"""

import multiprocessing
import os
import random
import signal
import stat
import threading
import time

import pytest

from repro.cube import CubeConqueror
from repro.portfolio import (
    BackendResult,
    BatchItemError,
    BatchScheduler,
    CdclBackend,
    PortfolioRunner,
    SolverBackend,
    batch_cancel,
)
from pool_events import submit
from repro.sat import parse_dimacs
from repro.server.jobs import JobSpec
from repro.server.pool import WorkerPool

FAULTS = ["raise", "exit", "sigkill", "sigkill-mid-write", "hang", "cancel"]

#: How long the parent is held up reading the sibling's result in the
#: mid-write cases, and when the faulty worker is killed within it.
STALL_S = 1.5
WRITE_AFTER_S = 0.4
KILL_AFTER_S = 0.8
#: A result far larger than a socket buffer, so its write blocks.
BIG = 4 * 1024 * 1024

#: How long a hanging map unit sleeps past the start of the batch.
HANG_S = 0.6
#: The race deadline a hanging portfolio/cube leg runs past.
RACE_TIMEOUT_S = 2.0


def sat_micro():
    return parse_dimacs("p cnf 3 3\n1 2 0\n-1 2 0\n-2 3 0\n")


def _wait_for_cancel(stop):
    end = time.monotonic() + 30  # a safety net, never reached when healthy
    while time.monotonic() < end:
        if stop is not None and stop():
            return
        time.sleep(0.01)
    raise AssertionError("the unit was never cancelled")


def _inject(kind, stop, sleep_past=0.0):
    """Run the fault inside the worker; returns a large payload
    (``sigkill-mid-write``) or None when the unit was cancelled."""
    if kind == "raise":
        raise RuntimeError("injected fault")
    if kind == "exit":
        time.sleep(0.2)
        os._exit(3)
    if kind == "sigkill":
        time.sleep(0.2)
        os.kill(os.getpid(), signal.SIGKILL)
    if kind == "sigkill-mid-write":
        threading.Timer(
            KILL_AFTER_S, os.kill, (os.getpid(), signal.SIGKILL)
        ).start()
        time.sleep(WRITE_AFTER_S)  # the sibling answers first
        return "x" * BIG
    if kind == "hang":
        time.sleep(sleep_past)  # deaf to everything, past its deadline
    _wait_for_cancel(stop)
    return None


class FaultBackend(SolverBackend):
    """A backend whose every solve is one injected fault (module level:
    workers receive it as a pickled ``Process`` argument under
    forkserver)."""

    def __init__(self, kind):
        self.kind = kind
        self.name = "fault-" + kind

    def solve(self, formula, conflict_budget=None, stop=None,
              assumptions=()):
        payload = _inject(self.kind, stop, RACE_TIMEOUT_S + 0.1)
        if payload is None:
            return BackendResult(None)
        return BackendResult(None, error=payload)


def _slow_validate(bits):
    time.sleep(STALL_S)
    return True


def _race_args(kind):
    if kind == "sigkill-mid-write":
        return {"validate": _slow_validate}, 30.0
    return {}, RACE_TIMEOUT_S if kind == "hang" else 30.0


@pytest.fixture(autouse=True)
def no_leaked_workers():
    yield
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("kind", FAULTS)
def test_portfolio_race(kind):
    extra, timeout_s = _race_args(kind)
    runner = PortfolioRunner(
        [CdclBackend("minisat"), FaultBackend(kind), FaultBackend(kind)],
        jobs=2, **extra,
    )
    outcome = runner.run(sat_micro(), timeout_s=timeout_s)
    assert outcome.verdict is True
    assert outcome.winner == "minisat"
    assert outcome.stats[0].status == "sat"
    for row in outcome.stats[1:]:
        assert row.status in ("error", "cancelled"), row
    if kind in ("exit", "sigkill", "sigkill-mid-write"):
        assert "worker-died" in outcome.stats[1].error
    if kind in ("hang", "cancel"):
        assert outcome.stats[1].status == "cancelled"


@pytest.mark.parametrize("kind", FAULTS)
def test_cube_conquest(kind):
    extra, timeout_s = _race_args(kind)
    # Two cubes, round-robin: cube 0 (satisfiable) goes to minisat,
    # cube 1 to the faulty backend.
    conq = CubeConqueror(
        [CdclBackend("minisat"), FaultBackend(kind)], jobs=2, depth=1,
        mode="occurrence", **extra,
    )
    outcome = conq.run(sat_micro(), timeout_s=timeout_s)
    assert outcome.verdict is True
    assert outcome.n_cubes == len(outcome.stats) == 2
    assert outcome.stats[0].status == "sat"
    assert outcome.stats[1].status in ("error", "cancelled"), outcome.stats
    if kind in ("exit", "sigkill", "sigkill-mid-write"):
        assert "worker-died" in outcome.stats[1].error
    if kind in ("hang", "cancel"):
        assert outcome.stats[1].status == "cancelled"


def _batch_unit(item):
    if item == "healthy":
        return "healthy"
    return _inject(item, batch_cancel().is_set, HANG_S) or "cancelled"


def _stop_on_healthy(result):
    return result == "healthy"


def _stall_then_stop_on_healthy(result):
    if result == "healthy":
        time.sleep(STALL_S)
    return result == "healthy"


@pytest.mark.parametrize("kind", FAULTS)
def test_batch_map(kind):
    stop_when = (
        _stall_then_stop_on_healthy if kind == "sigkill-mid-write"
        else _stop_on_healthy
    )
    results = BatchScheduler(2).map(
        _batch_unit, ["healthy", kind, kind], stop_when=stop_when
    )
    assert results[0] == "healthy"
    for res in results[1:]:
        assert res is None or res == "cancelled" or isinstance(
            res, BatchItemError
        ), res
    if kind in ("exit", "sigkill", "sigkill-mid-write"):
        assert results[1].kind == "worker-died"
    if kind == "raise":
        assert results[1].kind == "RuntimeError"
    if kind in ("hang", "cancel"):
        assert results[1] == "cancelled"


# -- server jobs -------------------------------------------------------------
#
# Server jobs run the real pipeline in the worker, so faults come through
# job inputs that work under every start method: a malformed instance,
# and external "solvers" (shell scripts behind the dimacs: backend) that
# signal their parent — the worker — or never answer.

EASY = "p cnf 1 1\n1 0\n"

SCRIPTS = {
    "exit": "kill -TERM $PPID\nsleep 1\n",
    "sigkill": "kill -KILL $PPID\nsleep 1\n",
    # Answers with a one-million-variable model, and kills the worker a
    # little later, while it writes that result.
    "sigkill-mid-write": (
        "( sleep {}; kill -KILL $PPID ) >/dev/null 2>&1 &\n"
        "sleep {}\necho 's SATISFIABLE'\necho 'v 1 0'\n".format(
            KILL_AFTER_S, WRITE_AFTER_S)
    ),
    "hang": "exec sleep 30\n",
}


def _hard_instance(n=200, ratio=4.26, seed=7):
    rng = random.Random(seed)
    lines = ["p cnf {} {}".format(n, int(n * ratio))]
    for _ in range(int(n * ratio)):
        vs = rng.sample(range(1, n + 1), 3)
        lines.append(
            " ".join(str(v if rng.random() < 0.5 else -v) for v in vs) + " 0"
        )
    return "\n".join(lines) + "\n"


def _faulty_job(kind, tmp_path):
    if kind == "raise":
        return JobSpec(fmt="dimacs", text="p cnf not-a-header")
    if kind == "cancel":
        return JobSpec(fmt="dimacs", text=_hard_instance(), preprocess=False)
    script = tmp_path / "solver.sh"
    script.write_text("#!/bin/sh\n" + SCRIPTS[kind])
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    text = "p cnf 1000000 1\n1 0\n" if kind == "sigkill-mid-write" else EASY
    return JobSpec(
        fmt="dimacs", text=text, preprocess=False,
        backend="dimacs:{}".format(script),
        timeout_s=0.5 if kind == "hang" else None,
    )


@pytest.mark.parametrize("kind", FAULTS)
def test_worker_pool_job(kind, tmp_path):
    def on_faulty_event(event, payload):
        if (kind == "sigkill-mid-write" and event == "progress"
                and payload["stage"] == "solving"):
            time.sleep(STALL_S)  # holds up the pool's serving thread

    with WorkerPool(jobs=2) as pool:
        _, sibling = submit(
            pool, JobSpec(fmt="dimacs", text=EASY, preprocess=False)
        )
        faulty, wait_faulty = submit(
            pool, _faulty_job(kind, tmp_path), on_event=on_faulty_event
        )
        if kind == "cancel":
            time.sleep(0.3)
            assert pool.cancel(faulty)
        result = wait_faulty(timeout=60)
        assert sibling(timeout=60)["verdict"] == "sat"
    assert result["verdict"] in ("error", "timeout", "cancelled"), result
    expected = {"raise": "error", "hang": "timeout", "cancel": "cancelled"}
    assert result["verdict"] == expected.get(kind, "error")
    if kind in ("exit", "sigkill", "sigkill-mid-write"):
        assert "worker-died" in result["error"]

"""The persistent worker pool: submission, cancellation, deadlines, and
death isolation.

The pool runs on the same worker slots as the batch scheduler, so the
invariants under test mirror the batch layer's: a worker dying mid-job fails *that job only* and the slot
respawns; cancellation is cooperative and lands within one conflict;
deadlines are per-job and start when the job does.
"""

import io
import os
import random
import time

import pytest

import repro.server.pool as pool_mod
from repro.anf import write_anf
from repro.ciphers import simon
from pool_events import submit
from repro.server.jobs import JobSpec, execute_job
from repro.server.pool import WorkerPool

EASY = "p cnf 1 1\n1 0\n"
UNSAT = "p cnf 1 2\n1 0\n-1 0\n"


def _hard_instance(n=200, ratio=4.26, seed=7):
    """Random 3-SAT near the phase transition: enough search to keep a
    worker busy for seconds, so cancellation can land mid-solve."""
    rng = random.Random(seed)
    m = int(n * ratio)
    lines = ["p cnf {} {}".format(n, m)]
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), 3)
        lines.append(
            " ".join(str(v if rng.random() < 0.5 else -v) for v in vs) + " 0"
        )
    return "\n".join(lines) + "\n"


HARD = _hard_instance()


def test_submit_wait_round_trip():
    with WorkerPool(jobs=1) as pool:
        _, sat = submit(pool, JobSpec(fmt="dimacs", text=EASY, preprocess=False))
        _, unsat = submit(
            pool, JobSpec(fmt="dimacs", text=UNSAT, preprocess=False))
        assert sat(timeout=60)["verdict"] == "sat"
        assert unsat(timeout=60)["verdict"] == "unsat"
        stats = pool.stats()
        assert stats["completed"] == 2
        assert stats["failed"] == 0


def test_event_stream_order():
    events = []
    with WorkerPool(jobs=1) as pool:
        _, wait = submit(
            pool, JobSpec(fmt="dimacs", text=EASY, preprocess=False),
            on_event=lambda kind, payload: events.append((kind, payload)),
        )
        result = wait(timeout=60)
    kinds = [k for k, _ in events]
    assert kinds[-1] == "result"
    assert set(kinds[:-1]) == {"progress"}
    assert events[-1][1] == result


def test_anf_job_with_shared_cache(tmp_path):
    anf = "x0*x1 + x2 + 1\nx1*x2 + x0\nx0 + x1 + x2 + 1\n"
    with WorkerPool(jobs=1, cache_dir=str(tmp_path)) as pool:
        cold = submit(pool, JobSpec(fmt="anf", text=anf))[1](timeout=120)
        warm = submit(pool, JobSpec(fmt="anf", text=anf))[1](timeout=120)
    assert cold["verdict"] == warm["verdict"] == "sat"
    assert warm["stats"]["conversion_disk_hits"] > 0
    assert warm["cnf_sha256"] == cold["cnf_sha256"]


def test_running_job_cancel_lands_within_a_slice():
    with WorkerPool(jobs=1) as pool:
        job, wait = submit(
            pool, JobSpec(fmt="dimacs", text=HARD, preprocess=False))
        time.sleep(0.4)  # let the solve get going
        assert pool.cancel(job)
        t0 = time.monotonic()
        result = wait(timeout=30)
        elapsed = time.monotonic() - t0
    assert result["verdict"] == "cancelled"
    # A cancel lands within one conflict — far under a second on this
    # instance; 5s is a generous bound that still proves cooperativity.
    assert elapsed < 5.0


def test_queued_job_cancel_resolves_immediately():
    with WorkerPool(jobs=1) as pool:
        running, wait_running = submit(
            pool, JobSpec(fmt="dimacs", text=HARD, preprocess=False))
        queued, wait_queued = submit(
            pool, JobSpec(fmt="dimacs", text=EASY, preprocess=False))
        assert pool.cancel(queued)
        result = wait_queued(timeout=5)
        assert result["verdict"] == "cancelled"
        pool.cancel(running)
        wait_running(timeout=30)


def test_cancel_unknown_or_finished_job_is_false():
    with WorkerPool(jobs=1) as pool:
        job, wait = submit(
            pool, JobSpec(fmt="dimacs", text=EASY, preprocess=False))
        wait(timeout=60)
        assert pool.cancel(job) is False
        assert pool.cancel(999) is False


def test_deadline_reports_timeout_verdict():
    with WorkerPool(jobs=1) as pool:
        _, wait = submit(
            pool,
            JobSpec(fmt="dimacs", text=HARD, preprocess=False, timeout_s=0.3),
        )
        result = wait(timeout=30)
    assert result["verdict"] in ("timeout", "sat", "unsat")
    # On this instance 0.3s is far from enough; accept a verdict only if
    # the solver genuinely beat the clock (never seen, but not illegal).
    assert result["verdict"] == "timeout"


def test_own_deadline_reports_timeout_not_unknown():
    result = execute_job(
        JobSpec(fmt="dimacs", text=HARD, preprocess=False, timeout_s=0.05)
    )
    assert result["verdict"] == "timeout"


def test_deadline_stops_the_job_at_the_next_stage_boundary():
    # Spent before parsing ends: the job stops at the first stage
    # boundary, without preprocessing or solving.
    stages = []
    result = execute_job(
        JobSpec(fmt="anf", text="x0*x1 + x2 + 1\nx1*x2 + x0\n",
                timeout_s=1e-6),
        progress=lambda stage, payload: stages.append(stage),
    )
    assert result["verdict"] == "timeout"
    assert stages == ["parsed"]


def test_deadline_stops_bosphorus_preprocessing():
    # Bosphorus answers this instance only after more than a second; the
    # job's stop reaches its learners and its inner solver, so the job
    # times out instead of answering long past its deadline.
    inst = simon.generate_instance(2, 6, seed=1)
    text = io.StringIO()
    write_anf(text, inst.polynomials, inst.ring)
    stages = []
    result = execute_job(
        JobSpec(fmt="anf", text=text.getvalue(), timeout_s=0.05),
        progress=lambda stage, payload: stages.append(stage),
    )
    assert result["verdict"] == "timeout"
    assert "solving" not in stages


def test_job_exception_is_isolated():
    with WorkerPool(jobs=1) as pool:
        _, bad = submit(pool, JobSpec(fmt="dimacs", text="p cnf not-a-header"))
        _, good = submit(
            pool, JobSpec(fmt="dimacs", text=EASY, preprocess=False))
        bad_result = bad(timeout=60)
        good_result = good(timeout=60)
    assert bad_result["verdict"] == "error"
    assert "error" in bad_result
    assert good_result["verdict"] == "sat"


def test_spec_validation_rejects_bad_jobs():
    with pytest.raises(ValueError):
        JobSpec(fmt="cnf", text=EASY).validate()
    with pytest.raises(ValueError):
        JobSpec(fmt="dimacs", text="   ").validate()
    with pytest.raises(ValueError):
        JobSpec(fmt="dimacs", text=EASY, config={"nope": 1}).validate()
    with pytest.raises(ValueError):
        JobSpec(fmt="dimacs", text=EASY, config={"cache_dir": "/x"}).validate()


def test_spec_validation_rejects_removed_overrides():
    # The loop's SAT step has one path: a client asking for a fan-out
    # inside the loop must fail loudly, not silently get another search.
    # Likewise for the retired trace-file, monomial-fact and Groebner
    # budget fields: the error names the field.
    for field in (
        "use_portfolio",
        "use_cube",
        "trace_path",
        "monomial_facts_from_sat",
        "groebner_max_pairs",
        "groebner_max_basis",
    ):
        spec = JobSpec(fmt="dimacs", text=EASY, config={field: True})
        with pytest.raises(ValueError, match=field):
            spec.validate()


#: No learning: the model comes from the backend's final solve, over a
#: CNF whose variables outnumber the input's.
NO_LEARNING = {"use_xl": False, "use_elimlin": False, "use_sat": False}


def test_backend_models_cover_only_the_input_variables():
    # Clause cutting adds CNF->ANF auxiliaries to the DIMACS job's CNF;
    # a 10-variable quadratic XOR above the Karnaugh limit adds monomial
    # auxiliaries to the ANF job's.
    dimacs = "p cnf 8 3\n1 2 3 4 5 6 7 0\n-1 -2 0\n8 -3 0\n"
    result = execute_job(JobSpec(fmt="dimacs", text=dimacs, config=NO_LEARNING))
    assert result["verdict"] == "sat"
    model = result["model"]
    assert len(model) == 8
    clauses = [[1, 2, 3, 4, 5, 6, 7], [-1, -2], [8, -3]]
    assert all(
        any(model[abs(lit) - 1] == (lit > 0) for lit in clause)
        for clause in clauses
    )

    anf = "x1*x2 + x3*x4 + x5*x6 + x7*x8 + x9*x10 + 1"
    result = execute_job(JobSpec(fmt="anf", text=anf, config=NO_LEARNING))
    assert result["verdict"] == "sat"
    model = result["model"]
    assert len(model) == 11  # the ring numbers x0..x10
    pairs = sum(model[v] & model[v + 1] for v in range(1, 11, 2))
    assert pairs % 2 == 1


@pytest.mark.parametrize("fmt,text", [
    ("dimacs", "p cnf 3 2\n1 2 0\n-1 3 0\n"),
    ("dimacs", "p cnf 3 1\nx1 2 3 0\n"),
    ("anf", "x1*x2 + x3 + 1"),
], ids=["dimacs-clauses", "dimacs-xor", "anf"])
def test_backend_model_is_validated_against_the_input(fmt, text, tmp_path):
    # An external solver claiming SAT with the all-false model, which
    # violates every input above: the job answers unknown, says why,
    # and reports no model.
    liar = tmp_path / "liar.sh"
    liar.write_text("#!/bin/sh\necho 's SATISFIABLE'\n"
                    "echo 'v -1 -2 -3 -4 0'\nexit 10\n")
    liar.chmod(0o755)
    result = execute_job(JobSpec(
        fmt=fmt, text=text, preprocess=False, backend="dimacs:" + str(liar)))
    assert result["verdict"] == "unknown"
    assert result["error"] == "model failed validation"
    assert result["model"] is None


# -- death isolation ---------------------------------------------------------


def _exploding_execute_job(spec, cache_dir=None, cancel=None, progress=None):
    if spec.text.startswith("c BOOM"):
        os._exit(1)  # hard crash mid-job, as an OOM-kill would
    return execute_job(
        spec, cache_dir=cache_dir, cancel=cancel, progress=progress
    )


def test_worker_death_mid_job_fails_only_that_job(monkeypatch):
    # fork start method so the monkeypatched execute_job is inherited.
    monkeypatch.setenv("REPRO_MP_START", "fork")
    monkeypatch.setattr(pool_mod, "execute_job", _exploding_execute_job)
    with WorkerPool(jobs=2) as pool:
        _, boom = submit(
            pool,
            JobSpec(fmt="dimacs", text="c BOOM\n" + EASY, preprocess=False),
        )
        good = [
            submit(pool, JobSpec(fmt="dimacs", text=EASY, preprocess=False))[1]
            for _ in range(4)
        ]
        boom_result = boom(timeout=60)
        assert boom_result["verdict"] == "error"
        assert "worker-died" in boom_result["error"]
        for wait in good:
            assert wait(timeout=60)["verdict"] == "sat"
        stats = pool.stats()
        assert stats["respawns"] >= 1
        assert stats["alive"] == 2
        assert stats["failed"] == 1


def test_idle_worker_death_respawns_cleanly(monkeypatch):
    # A worker killed while *blocked reading its pipe* takes only that
    # pipe with it; the respawned slot must keep serving.
    monkeypatch.setenv("REPRO_MP_START", "fork")
    with WorkerPool(jobs=1) as pool:
        first = submit(
            pool, JobSpec(fmt="dimacs", text=EASY, preprocess=False)
        )[1](timeout=60)
        assert first["verdict"] == "sat"
        pool._slots.procs[0].terminate()
        deadline = time.monotonic() + 10
        while pool.stats()["respawns"] == 0:
            assert time.monotonic() < deadline, "slot never respawned"
            time.sleep(0.05)
        second = submit(
            pool, JobSpec(fmt="dimacs", text=EASY, preprocess=False)
        )[1](timeout=60)
        assert second["verdict"] == "sat"


def test_finished_jobs_leave_no_state():
    # 20 jobs counted off their result events, then one waited on: none
    # may stay behind in the pool's job table.
    results = []
    with WorkerPool(jobs=1) as pool:
        for _ in range(20):
            pool.submit(
                JobSpec(fmt="dimacs", text=EASY, preprocess=False),
                on_event=lambda kind, payload: (
                    kind == "result" and results.append(payload)
                ),
            )
        deadline = time.monotonic() + 60
        while len(results) < 20:
            assert time.monotonic() < deadline, "jobs never finished"
            time.sleep(0.05)
        assert not pool._jobs
        _, wait = submit(
            pool, JobSpec(fmt="dimacs", text=EASY, preprocess=False))
        assert wait(timeout=60)["verdict"] == "sat"
        assert not pool._jobs
        stats = pool.stats()
    assert stats["done"] == stats["completed"] == 21
    assert all(r["verdict"] == "sat" for r in results)


def test_pool_rejects_submit_after_close():
    pool = WorkerPool(jobs=1)
    pool.close()
    with pytest.raises(RuntimeError):
        submit(pool, JobSpec(fmt="dimacs", text=EASY, preprocess=False))


def test_concurrent_submit_and_cancel_resolve_every_job_once():
    # More workers than cores, three submitting threads, every third job
    # cancelled at once: each job must resolve exactly once, and the
    # pool's counters must add up.  A job cancelled while queued resolves
    # inside cancel(), so the verdicts are read off the event stream.
    import threading

    n_threads, per_thread = 3, 12
    events = {}
    verdicts = []
    lock = threading.Lock()
    ids = []

    def client(k):
        for i in range(per_thread):
            def on_event(kind, payload, key=(k, i)):
                if kind != "progress":
                    with lock:
                        events[key] = events.get(key, 0) + 1
                        verdicts.append(
                            payload["verdict"] if kind == "result" else kind
                        )

            job = pool.submit(
                JobSpec(fmt="dimacs", text=EASY if i % 2 else UNSAT,
                        preprocess=False),
                on_event=on_event,
            )
            if i % 3 == 0:
                pool.cancel(job)
            with lock:
                ids.append(job)

    with WorkerPool(jobs=4) as pool:
        threads = [threading.Thread(target=client, args=(k,))
                   for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        deadline = time.monotonic() + 60
        while True:
            with lock:
                if len(verdicts) >= len(ids):
                    break
            assert time.monotonic() < deadline, "jobs never resolved"
            time.sleep(0.05)
        stats = pool.stats()
        assert not pool._jobs
    assert len(set(ids)) == n_threads * per_thread
    assert set(verdicts) <= {"sat", "unsat", "cancelled"}
    assert sorted(events.values()) == [1] * len(ids)
    assert stats["done"] == stats["completed"] == len(ids)
    assert stats["failed"] == 0

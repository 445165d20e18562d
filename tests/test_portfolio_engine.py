"""PortfolioRunner: first-win cancellation, deterministic arbitration
and model validation/demotion.
"""

import itertools
import time

import pytest

from repro.anf import AnfSystem
from repro.core import Config
from repro.core.anf_to_cnf import AnfToCnf
from repro.core.solution import solution_from_model
from repro.portfolio import (
    BackendResult,
    CdclBackend,
    PortfolioDisagreement,
    PortfolioRunner,
    SolverBackend,
    arbitrate,
)
from repro.sat import parse_dimacs
from repro.satcomp.generators import pigeonhole


def sat_micro():
    return parse_dimacs("p cnf 3 3\n1 2 0\n-1 2 0\n-2 3 0\n")


class StallBackend(SolverBackend):
    """Never answers; exits promptly when cancelled.  Must live at module
    level: the engine pickles backends into worker processes."""

    name = "stall"

    def solve(self, formula, timeout_s=None, deadline=None,
              conflict_budget=None, cancel=None):
        if deadline is None:
            deadline = time.monotonic() + (timeout_s if timeout_s else 30.0)
        while time.monotonic() < deadline:
            if cancel is not None and cancel.is_set():
                return BackendResult(None, cancelled=True)
            time.sleep(0.01)
        return BackendResult(None)


class LyingBackend(SolverBackend):
    """Claims SAT with a bogus model — the validator must demote it."""

    name = "liar"

    def solve(self, formula, timeout_s=None, deadline=None,
              conflict_budget=None, cancel=None):
        return BackendResult(True, model=[0] * formula.n_vars)


class DyingBackend(SolverBackend):
    """Kills its own worker process — the pool sees a dead worker, not a
    solve error."""

    name = "dying"

    def solve(self, formula, timeout_s=None, deadline=None,
              conflict_budget=None, cancel=None):
        import os

        time.sleep(0.3)
        os._exit(17)


# -- arbitration ------------------------------------------------------------


def test_arbitrate_is_order_independent():
    entries = [
        (0, BackendResult(None)),
        (1, BackendResult(True, model=[1])),
        (2, BackendResult(True, model=[0])),
        (3, None),
    ]
    winners = {
        arbitrate(list(perm)) for perm in itertools.permutations(entries)
    }
    assert winners == {1}


def test_arbitrate_nothing_decided():
    assert arbitrate([(0, BackendResult(None)), (1, None)]) is None


def test_arbitrate_raises_on_disagreement():
    with pytest.raises(PortfolioDisagreement):
        arbitrate([(0, BackendResult(True, model=[1])), (1, BackendResult(False))])


# -- sequential mode --------------------------------------------------------


def test_sequential_first_win_cancels_the_rest():
    runner = PortfolioRunner(
        [CdclBackend("minisat"), CdclBackend("cms"), StallBackend()], jobs=1
    )
    outcome = runner.run(sat_micro(), timeout_s=10)
    assert outcome.verdict is True
    assert outcome.winner == "minisat"
    assert [s.status for s in outcome.stats] == ["sat", "cancelled", "cancelled"]
    assert sum(s.cancelled for s in outcome.stats) == 2
    assert outcome.stats[0].won and not outcome.stats[1].won


def test_sequential_determinism():
    runner = PortfolioRunner(
        [CdclBackend("minisat"), CdclBackend("cms", seed=2)], jobs=1
    )
    a = runner.run(sat_micro(), timeout_s=10)
    b = runner.run(sat_micro(), timeout_s=10)
    assert (a.verdict, a.winner, a.model) == (b.verdict, b.winner, b.model)


def test_unavailable_backends_are_skipped():
    from repro.portfolio import DimacsBackend

    runner = PortfolioRunner(
        [DimacsBackend(command=("no-such-binary",)), CdclBackend("minisat")],
        jobs=1,
    )
    outcome = runner.run(sat_micro(), timeout_s=10)
    assert outcome.verdict is True
    assert outcome.stats[0].status == "skipped"
    assert outcome.winner == "minisat"


def test_invalid_model_demotes_backend():
    def validate(bits):
        formula = sat_micro()
        return all(
            any(bits[l >> 1] ^ (l & 1) == 1 for l in clause)
            for clause in formula.clauses
        )

    runner = PortfolioRunner(
        [LyingBackend(), CdclBackend("minisat")], jobs=1, validate=validate
    )
    outcome = runner.run(sat_micro(), timeout_s=10)
    assert outcome.verdict is True
    assert outcome.winner == "minisat"
    assert outcome.stats[0].status == "invalid-model"
    assert outcome.stats[0].demoted
    assert validate(outcome.model)


def test_all_unknown_yields_no_verdict():
    runner = PortfolioRunner(
        [CdclBackend("minisat"), CdclBackend("cms", seed=1)], jobs=1
    )
    outcome = runner.run(pigeonhole(9), conflict_budget=30, timeout_s=10)
    assert outcome.verdict is None
    assert outcome.winner is None
    assert all(s.status == "unknown" for s in outcome.stats)


def test_timeout_bounds_the_whole_race_not_each_backend():
    # Regression: timeout_s used to hand every backend its own fresh
    # budget, so a sequential race of N backends burned N x timeout.
    runner = PortfolioRunner(
        [CdclBackend("minisat"), CdclBackend("cms"), CdclBackend("minisat", seed=3)],
        jobs=1,
    )
    start = time.monotonic()
    outcome = runner.run(pigeonhole(9), timeout_s=0.6)
    elapsed = time.monotonic() - start
    assert outcome.verdict is None
    assert elapsed < 1.4  # one shared 0.6 s budget, not 3 x 0.6 s


# -- parallel mode ----------------------------------------------------------


def test_parallel_first_win_cancels_stalled_worker():
    runner = PortfolioRunner(
        [CdclBackend("minisat"), StallBackend()], jobs=2
    )
    start = time.monotonic()
    outcome = runner.run(sat_micro(), timeout_s=20)
    elapsed = time.monotonic() - start
    assert outcome.verdict is True
    assert outcome.winner == "minisat"
    stall_row = outcome.stats[1]
    assert stall_row.status == "cancelled"
    assert stall_row.cancelled
    assert sum(s.cancelled for s in outcome.stats) >= 1
    assert elapsed < 15.0  # far below the stall backend's 20 s horizon


def test_parallel_dead_worker_reports_error_and_real_elapsed():
    # Regression: a backend whose worker process died was recorded with
    # elapsed = 0.0, misreporting its wall time in PortfolioStats.  The
    # row must carry the error and the real time the backend held its
    # slot (>= the 0.3 s the worker lived).
    runner = PortfolioRunner(
        [CdclBackend("minisat"), DyingBackend()], jobs=2
    )
    outcome = runner.run(sat_micro(), timeout_s=20)
    assert outcome.verdict is True
    assert outcome.winner == "minisat"
    dying_row = outcome.stats[1]
    assert dying_row.status == "error"
    assert dying_row.error and "worker" in dying_row.error
    assert dying_row.seconds >= 0.25


def test_parallel_dying_leg_leaves_healthy_sibling_verdict():
    # Regression: the dying leg broke the race's shared executor, and the
    # healthy minisat leg, still solving, was failed with it: the race
    # answered None although minisat alone proves UNSAT.  One leg's
    # death must not touch its sibling.
    runner = PortfolioRunner(
        [CdclBackend("minisat"), DyingBackend()], jobs=2
    )
    outcome = runner.run(pigeonhole(7), timeout_s=60)
    assert outcome.verdict is False
    assert outcome.winner == "minisat"
    assert outcome.stats[0].status == "unsat"
    assert outcome.stats[1].status == "error"


def test_default_jobs_follow_the_affinity_mask(monkeypatch):
    # Regression: the race sized itself by os.cpu_count(), oversubscribing
    # a container pinned to fewer CPUs than the machine has.
    import os

    from repro.obs import Tracer

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    tracer = Tracer()
    runner = PortfolioRunner(
        [CdclBackend("minisat"), CdclBackend("cms")], tracer=tracer
    )
    assert runner.run(sat_micro(), timeout_s=10).verdict is True
    race = next(s for s in tracer.spans() if s["name"] == "portfolio.race")
    assert race["attrs"]["jobs"] == 1


def test_parallel_verdict_matches_sequential():
    backends = [CdclBackend("minisat"), CdclBackend("cms", seed=1)]
    seq = PortfolioRunner(backends, jobs=1).run(sat_micro(), timeout_s=10)
    par = PortfolioRunner(backends, jobs=2).run(sat_micro(), timeout_s=10)
    assert par.verdict == seq.verdict is True


def test_parallel_unsat_race():
    runner = PortfolioRunner(
        [CdclBackend("minisat"), CdclBackend("cms"), CdclBackend("minisat", seed=3)],
        jobs=2,
    )
    outcome = runner.run(pigeonhole(5), timeout_s=20)
    assert outcome.verdict is False
    assert outcome.winner is not None


# -- Simon/Speck round-trip acceptance --------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("cipher", ["simon", "speck"])
def test_portfolio_validated_verdict_on_cipher_roundtrip(cipher):
    """The acceptance claim: 2+ in-process backends race a real cipher
    key-recovery instance, the winning SAT model survives reconstruction
    through the conversion auxiliaries and evaluation on the original
    ANF, and the losing/stalled worker is provably cancelled."""
    from repro.ciphers import simon, speck

    if cipher == "simon":
        inst = simon.generate_instance(2, 4, seed=1)
    else:
        inst = speck.generate_instance(2, 3, seed=1)
    system = AnfSystem(inst.ring.clone(), inst.polynomials)
    conversion = AnfToCnf(Config()).convert(system)
    polynomials = list(inst.polynomials)

    def validate(bits):
        try:
            solution = solution_from_model(conversion, bits)
        except ValueError:
            return False
        return solution.satisfies(polynomials)

    runner = PortfolioRunner(
        [CdclBackend("minisat"), CdclBackend("cms", seed=5), StallBackend()],
        jobs=2,
        validate=validate,
    )
    outcome = runner.run(conversion.formula, timeout_s=60)
    assert outcome.verdict is True
    assert outcome.winner in ("minisat", "cms@5")
    assert validate(outcome.model)
    assert any(s.cancelled for s in outcome.stats)

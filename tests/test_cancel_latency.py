"""Cancels and deadlines land within one conflict, not one slice.

``sliced_solve`` runs the search in slices of ``SLICE_CONFLICTS``
conflicts (a slice boundary restarts Luby, so the slices are part of the
pinned search), but the solver asks its ``stop`` predicate after every
conflict: a cancelled race loser or an expired job stops at the next
conflict, and a search that is never stopped is the unstopped search.
"""

import types

import pytest

import repro.portfolio.backends as backends
from repro.portfolio.backends import SLICE_CONFLICTS, sliced_solve, stop_rule
from repro.sat import Solver, minisat_config, solver_counters
from repro.satcomp.generators import pigeonhole, random_ksat

#: A stop point inside the second slice, on no slice boundary.
K = SLICE_CONFLICTS + 237


def _loaded(formula) -> Solver:
    solver = Solver(minisat_config())
    solver.ensure_vars(formula.n_vars)
    solver.add_clauses([list(c) for c in formula.clauses])
    return solver


class _SetAt:
    """A cancel token that reads set once the solver reached ``k``
    conflicts."""

    def __init__(self, solver: Solver, k: int):
        self.solver = solver
        self.k = k

    def is_set(self) -> bool:
        return self.solver.num_conflicts >= self.k


class _NeverSet:
    def is_set(self) -> bool:
        return False


def _trajectory(solver: Solver, verdict):
    return {
        "verdict": verdict,
        "counters": solver_counters(solver),
        "learnts": [list(c.lits) for c in solver.learnts],
        "model": list(solver.model) if verdict else None,
    }


def test_cancel_stops_at_the_conflict_it_was_set():
    assert K % SLICE_CONFLICTS
    solver = _loaded(pigeonhole(8))
    verdict = sliced_solve(solver, stop_rule(cancel=_SetAt(solver, K)))
    assert verdict is None
    assert solver.num_conflicts == K
    assert solver.decision_level == 0
    assert solver.ok


@pytest.mark.parametrize("formula,budget", [
    (pigeonhole(6), None),                  # UNSAT across two slices
    (pigeonhole(8), K),                     # budget runs out mid-slice
    (random_ksat(60, 240, seed=3), None),   # SAT: the model too
], ids=["php6-unsat", "php8-budget", "ksat-sat"])
def test_never_stopped_search_is_the_unstopped_search(formula, budget):
    plain = _loaded(formula)
    expected = _trajectory(
        plain, sliced_solve(plain, conflict_budget=budget)
    )
    watched = _loaded(formula)
    got = _trajectory(watched, sliced_solve(
        watched, stop_rule(float("inf"), _NeverSet()), conflict_budget=budget,
    ))
    assert got == expected


def test_deadline_passing_mid_slice_stops_within_one_conflict(monkeypatch):
    # The clock reads the solver's conflict count, so the deadline
    # passes exactly at conflict K, in the middle of the second slice.
    solver = _loaded(pigeonhole(8))
    monkeypatch.setattr(backends, "time", types.SimpleNamespace(
        monotonic=lambda: float(solver.num_conflicts)))
    verdict = sliced_solve(solver, stop_rule(float(K)))
    assert verdict is None
    assert solver.num_conflicts == K
    assert solver.decision_level == 0

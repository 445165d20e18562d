"""Tests for the SatELite-style preprocessor (Lingeling personality)."""

import itertools
import random

import pytest

from repro.sat import Preprocessor, Solver, mk_lit
from repro.sat.types import TRUE, UNDEF


def brute_models(n_vars, clauses):
    models = []
    for bits in itertools.product([0, 1], repeat=n_vars):
        if all(any(bits[l >> 1] ^ (l & 1) for l in c) for c in clauses):
            models.append(list(bits))
    return models


def random_3sat(n, m, rng):
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(n), 3)
        clauses.append([mk_lit(v, rng.random() < 0.5) for v in vs])
    return clauses


def solve(n_vars, clauses):
    solver = Solver()
    solver.ensure_vars(n_vars)
    for c in clauses:
        if not solver.add_clause(c):
            return False, None
    verdict = solver.solve()
    return verdict, solver.model if verdict else None


def test_unit_propagation():
    pre = Preprocessor(3, [[mk_lit(0)], [mk_lit(0, True), mk_lit(1)]])
    result = pre.run()
    assert result.status is True
    assert [mk_lit(0)] in result.clauses
    assert [mk_lit(1)] in result.clauses


def test_unit_conflict_detected():
    pre = Preprocessor(1, [[mk_lit(0)], [mk_lit(0, True)]])
    assert pre.run().status is False


def subsumption_round(n_vars, clauses):
    """The clauses left by one subsumption round alone (``run`` would
    also eliminate these tiny formulas' variables outright)."""
    pre = Preprocessor(n_vars, clauses)
    pre._subsumption_round()
    return [list(c) for c in pre._clauses if c is not None]


def test_subsumption_removes_superset():
    clauses = [[mk_lit(0), mk_lit(1)], [mk_lit(0), mk_lit(1), mk_lit(2)]]
    lens = sorted(len(c) for c in subsumption_round(3, clauses))
    assert lens == [2]


def test_strengthening_self_subsumes():
    # (a ∨ b) and (a ∨ ¬b ∨ c): the second strengthens against the first?
    # (a∨b) with (¬b flipped) ⊆ (a∨¬b∨c) → second becomes (a ∨ c).
    clauses = [
        [mk_lit(0), mk_lit(1)],
        [mk_lit(0), mk_lit(1, True), mk_lit(2)],
    ]
    assert sorted(sorted(c) for c in subsumption_round(3, clauses)) == sorted(
        [sorted([mk_lit(0), mk_lit(1)]), sorted([mk_lit(0), mk_lit(2)])]
    )


def test_bve_eliminates_pure_variable():
    # Variable 2 occurs only positively: BVE resolves it away (0 resolvents).
    clauses = [[mk_lit(0), mk_lit(2)], [mk_lit(1), mk_lit(2)]]
    pre = Preprocessor(3, clauses)
    result = pre.run()
    for c in result.clauses:
        assert all((l >> 1) != 2 for l in c)


@pytest.mark.parametrize("seed", range(15))
def test_equisatisfiable_with_original(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 9)
    clauses = random_3sat(n, rng.randint(n, 4 * n), rng)
    original_models = brute_models(n, clauses)
    pre = Preprocessor(n, [list(c) for c in clauses])
    result = pre.run()
    if result.status is False:
        assert not original_models
        return
    verdict, model = solve(n, result.clauses)
    assert (verdict is True) == bool(original_models)


@pytest.mark.parametrize("seed", range(15))
def test_model_extension_satisfies_original(seed):
    rng = random.Random(1000 + seed)
    n = rng.randint(4, 9)
    clauses = random_3sat(n, rng.randint(n, 4 * n), rng)
    pre = Preprocessor(n, [list(c) for c in clauses])
    result = pre.run()
    if result.status is False:
        return
    verdict, model = solve(n, result.clauses)
    if verdict is not True:
        return
    extended = pre.extend_model(
        [model[v] if v < len(model) else UNDEF for v in range(n)]
    )
    bits = [1 if x == TRUE else 0 for x in extended]
    for clause in clauses:
        assert any(bits[l >> 1] ^ (l & 1) for l in clause), "original clause broken"

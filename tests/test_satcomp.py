"""Tests for the synthetic SAT-2017 substitute suite."""

from repro.satcomp import build_suite, generators, hard_subset
from repro.sat import Solver


def solve(formula, budget=None):
    solver = Solver()
    solver.ensure_vars(formula.n_vars)
    for c in formula.clauses:
        if not solver.add_clause(c):
            return False
    return solver.solve(conflict_budget=budget)


def test_random_ksat_shape():
    f = generators.random_ksat(20, 85, 3, seed=1)
    assert f.n_vars == 20
    assert len(f.clauses) == 85
    assert all(len(c) == 3 for c in f.clauses)


def test_random_ksat_deterministic():
    a = generators.random_ksat(10, 30, 3, seed=7)
    b = generators.random_ksat(10, 30, 3, seed=7)
    assert a.clauses == b.clauses


def test_planted_ksat_is_satisfied_by_plant():
    f, solution = generators.planted_ksat(15, 60, 3, seed=2)
    for clause in f.clauses:
        assert any(solution[l >> 1] ^ (l & 1) for l in clause)
    assert solve(f) is True


def test_pigeonhole_unsat():
    for holes in (3, 4, 5):
        assert solve(generators.pigeonhole(holes)) is False


def test_pigeonhole_minus_a_pigeon_sat():
    # Dropping pigeon constraints makes it satisfiable (sanity check).
    f = generators.pigeonhole(4)
    f.clauses = f.clauses[1:]  # drop one pigeon's "somewhere" clause
    assert solve(f) is True


def test_tseitin_parity_unsat_by_charge():
    f = generators.tseitin_parity(6, 3, seed=3, satisfiable=False)
    assert solve(f) is False


def test_tseitin_parity_satisfiable_variant():
    f = generators.tseitin_parity(6, 3, seed=3, satisfiable=True)
    assert solve(f) is True


def test_xor_chain_sat_and_unsat():
    sat = generators.xor_chain(12, seed=1, satisfiable=True)
    unsat = generators.xor_chain(12, seed=1, satisfiable=False)
    assert solve(sat) is True
    assert solve(unsat) is False


def test_build_suite_families():
    suite = build_suite(scale=0.5, per_family=2, seed=1)
    families = {inst.family for inst in suite}
    assert families == {
        "random-3sat", "planted-3sat", "pigeonhole", "tseitin-parity", "xor-chain"
    }
    assert len(suite) == 10


def test_suite_expected_verdicts_correct():
    suite = build_suite(scale=0.4, per_family=2, seed=2)
    for inst in suite:
        if inst.expected is None:
            continue
        verdict = solve(inst.formula, budget=200000)
        assert verdict == inst.expected, inst.name


def test_hard_subset_filters():
    suite = build_suite(scale=0.5, per_family=2, seed=1)
    hard = hard_subset(suite, conflict_threshold=5)
    assert len(hard) <= len(suite)
    # Everything in the subset must really be unsolved within the budget.
    for inst in hard:
        assert solve(inst.formula, budget=5) is None

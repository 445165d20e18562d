"""Tests for the CDCL SAT solver, including brute-force cross-checks."""

import itertools
import random

import pytest

from repro.sat import SAT, UNKNOWN, UNSAT, Solver, luby, mk_lit
from repro.sat.types import TRUE


def brute_force(n_vars, clauses):
    """All-assignments reference check; returns a model or None."""
    for bits in itertools.product([0, 1], repeat=n_vars):
        ok = True
        for clause in clauses:
            if not any(bits[l >> 1] ^ (l & 1) for l in clause):
                ok = False
                break
        if ok:
            return list(bits)
    return None


def make_solver(clauses, n_vars=0):
    solver = Solver()
    solver.ensure_vars(n_vars)
    ok = True
    for c in clauses:
        ok = solver.add_clause(c) and ok
    return solver, ok


# -- basics ---------------------------------------------------------------------


def test_empty_formula_is_sat():
    solver = Solver()
    assert solver.solve() is SAT


def test_single_unit():
    solver, ok = make_solver([[mk_lit(0)]])
    assert ok and solver.solve() is SAT
    assert solver.model[0] == TRUE


def test_contradictory_units():
    solver, ok = make_solver([[mk_lit(0)], [mk_lit(0, True)]])
    assert not ok or solver.solve() is UNSAT


def test_tautology_dropped():
    solver, ok = make_solver([[mk_lit(0), mk_lit(0, True)]])
    assert ok
    assert solver.solve() is SAT


def test_duplicate_literals_collapse():
    solver, ok = make_solver([[mk_lit(0), mk_lit(0)]])
    assert solver.solve() is SAT
    assert solver.model[0] == TRUE


def test_add_clauses_keeps_per_clause_semantics():
    solver = Solver()
    assert solver.add_clauses([
        [mk_lit(0)],                                # unit: x0 at level 0
        [mk_lit(1), mk_lit(1, True), mk_lit(9)],    # tautology, stops at ¬x1
        [mk_lit(0), mk_lit(4)],                     # satisfied, stops at x0
        [mk_lit(0, True), mk_lit(2), mk_lit(2), mk_lit(3)],
    ])
    # Variables are allocated up to the literal where a clause was
    # settled, as add_clause does: x9 and x4 never were.
    assert solver.n_vars == 4
    assert [c.lits for c in solver.clauses] == [[mk_lit(2), mk_lit(3)]]
    assert solver.level0_literals() == [mk_lit(0)]
    # The first clause that makes the solver UNSAT ends the batch.
    assert solver.add_clauses([[mk_lit(0, True)], [mk_lit(5), mk_lit(6)]]) is False
    assert not solver.ok and solver.n_vars == 4
    assert solver.add_clauses([[mk_lit(7)]]) is False


def test_simple_implication_chain():
    # x0 ∧ (¬x0∨x1) ∧ (¬x1∨x2) forces all true.
    clauses = [[mk_lit(0)], [mk_lit(0, True), mk_lit(1)], [mk_lit(1, True), mk_lit(2)]]
    solver, _ = make_solver(clauses)
    assert solver.solve() is SAT
    assert solver.model == [TRUE, TRUE, TRUE]


def test_unsat_triangle():
    # (x0∨x1) (x0∨¬x1) (¬x0∨x1) (¬x0∨¬x1) is UNSAT.
    clauses = [
        [mk_lit(0), mk_lit(1)],
        [mk_lit(0), mk_lit(1, True)],
        [mk_lit(0, True), mk_lit(1)],
        [mk_lit(0, True), mk_lit(1, True)],
    ]
    solver, _ = make_solver(clauses)
    assert solver.solve() is UNSAT


def test_luby_sequence():
    assert [luby(i) for i in range(1, 16)] == [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8
    ]


# -- conflict budget (paper section II-D) ------------------------------------------


def php_clauses(holes):
    pigeons = holes + 1
    clauses = []
    for i in range(pigeons):
        clauses.append([mk_lit(i * holes + j) for j in range(holes)])
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                clauses.append([mk_lit(i1 * holes + j, True), mk_lit(i2 * holes + j, True)])
    return clauses


def test_budget_returns_unknown_and_is_resumable():
    clauses = php_clauses(7)
    solver, _ = make_solver(clauses)
    verdict = solver.solve(conflict_budget=10)
    assert verdict is UNKNOWN
    assert solver.decision_level == 0  # backtracked before returning
    # Resume with a generous budget: PHP(8,7) is UNSAT.
    assert solver.solve(conflict_budget=200000) is UNSAT


def test_budget_exhaustion_keeps_level0_facts_valid():
    clauses = php_clauses(6)
    solver, _ = make_solver(clauses)
    solver.solve(conflict_budget=50)
    for lit in solver.level0_literals():
        assert solver.val[lit] == TRUE


# -- learnt fact extraction ----------------------------------------------------------


def test_level0_literals_from_units():
    solver, _ = make_solver([[mk_lit(3)], [mk_lit(3, True), mk_lit(1, True)]])
    solver.solve(conflict_budget=0)
    lits = set(solver.level0_literals())
    assert mk_lit(3) in lits
    assert mk_lit(1, True) in lits


def test_learnt_binaries_recorded():
    # Force a conflict whose 1UIP clause is binary: x0 -> chain -> conflict.
    rng = random.Random(0)
    clauses = random_3sat(12, 60, rng)
    solver, ok = make_solver(clauses, 12)
    solver.solve(conflict_budget=1000)
    for a, b in solver.learnt_binaries:
        assert a < b


# -- randomized cross-checks ----------------------------------------------------------


def random_3sat(n, m, rng):
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(n), 3)
        clauses.append([mk_lit(v, rng.random() < 0.5) for v in vs])
    return clauses


@pytest.mark.parametrize("seed", range(20))
def test_agrees_with_brute_force_random(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 10)
    m = rng.randint(n, 5 * n)
    clauses = random_3sat(n, m, rng)
    expected = brute_force(n, clauses)
    solver, ok = make_solver(clauses, n)
    verdict = solver.solve() if ok else UNSAT
    if expected is None:
        assert verdict is UNSAT
    else:
        assert verdict is SAT
        model = [1 if v == TRUE else 0 for v in solver.model]
        for clause in clauses:
            assert any(model[l >> 1] ^ (l & 1) for l in clause)


@pytest.mark.parametrize("seed", range(10))
def test_model_satisfies_all_clauses(seed):
    rng = random.Random(100 + seed)
    clauses = random_3sat(15, 40, rng)
    solver, ok = make_solver(clauses, 15)
    if not ok:
        return
    if solver.solve() is SAT:
        model = [1 if v == TRUE else 0 for v in solver.model]
        for clause in clauses:
            assert any(model[l >> 1] ^ (l & 1) for l in clause)


def test_unsat_xor_system_via_clauses():
    # x0^x1=1, x1^x2=0, x0^x2=0 sums to 1=0: UNSAT.
    def xor_clauses(a, b, rhs):
        out = []
        for pa, pb in itertools.product([0, 1], repeat=2):
            if pa ^ pb != rhs:
                out.append([mk_lit(a, bool(pa)), mk_lit(b, bool(pb))])
        return out

    clauses = xor_clauses(0, 1, 1) + xor_clauses(1, 2, 0) + xor_clauses(0, 2, 0)
    solver, ok = make_solver(clauses)
    assert not ok or solver.solve() is UNSAT


def test_assumptions_sat_and_conflicting():
    clauses = [[mk_lit(0), mk_lit(1)]]
    solver, _ = make_solver(clauses)
    assert solver.solve(assumptions=[mk_lit(0, True)]) is SAT
    assert solver.model[1] == TRUE
    solver2, _ = make_solver([[mk_lit(0)]])
    assert solver2.solve(assumptions=[mk_lit(0, True)]) is UNSAT


# -- the assumption-UNSAT / global-UNSAT distinction ------------------------


def test_assumption_unsat_is_not_global_unsat():
    # x0 is forced; assuming ¬x0 is UNSAT *under the cube* only.  The
    # pre-fix solver returned a bare UNSAT here, indistinguishable from a
    # global refutation — cube-and-conquer aggregation needs the two told
    # apart.
    solver, _ = make_solver([[mk_lit(0)]])
    assert solver.solve(assumptions=[mk_lit(0, True)]) is UNSAT
    assert solver.assumptions_failed
    assert solver.failed_assumption == mk_lit(0, True)
    assert solver.ok  # the formula itself was never refuted
    # The same solver still answers the unconditional question.
    assert solver.solve() is SAT
    assert not solver.assumptions_failed
    assert solver.failed_assumption is None


def test_global_unsat_does_not_raise_assumption_flag():
    # x0 ∧ ¬x0 is globally UNSAT; the flag must stay down even when
    # assumptions are supplied.
    solver, ok = make_solver([[mk_lit(0)], [mk_lit(0, True)]])
    assert (not ok) or solver.solve(assumptions=[mk_lit(1)]) is UNSAT
    assert not solver.assumptions_failed
    assert solver.failed_assumption is None


def test_contradictory_assumption_list_flags_failure():
    solver, _ = make_solver([[mk_lit(0), mk_lit(1)]], n_vars=2)
    verdict = solver.solve(assumptions=[mk_lit(0), mk_lit(0, True)])
    assert verdict is UNSAT
    assert solver.assumptions_failed
    assert solver.failed_assumption == mk_lit(0, True)
    assert solver.solve() is SAT


def test_empty_assumption_list_is_plain_solve():
    solver, _ = make_solver([[mk_lit(0)]])
    assert solver.solve(assumptions=[]) is SAT
    assert not solver.assumptions_failed


def test_assumption_unsat_derived_by_search():
    # The falsified assumption is only discovered after propagation of
    # earlier assumptions: x0 → x1 (via ¬x0 ∨ x1), assume [x0, ¬x1].
    clauses = [[mk_lit(0, True), mk_lit(1)]]
    solver, _ = make_solver(clauses, n_vars=2)
    verdict = solver.solve(assumptions=[mk_lit(0), mk_lit(1, True)])
    assert verdict is UNSAT
    assert solver.assumptions_failed
    assert solver.solve() is SAT


def test_cube_run_never_leaks_conditional_units_to_level0():
    # After an UNSAT-under-cube run on a globally SAT formula, the
    # level-0 trail must contain only cube-independent facts: every
    # reported unit must hold in every model of the formula.
    clauses = [
        [mk_lit(0)],                      # x0 forced (a genuine fact)
        [mk_lit(1, True), mk_lit(2)],     # x1 → x2
        [mk_lit(2, True), mk_lit(3)],     # x2 → x3
    ]
    solver, _ = make_solver(clauses, n_vars=4)
    assert solver.solve(assumptions=[mk_lit(1), mk_lit(3, True)]) is UNSAT
    assert solver.assumptions_failed
    level0 = set(solver.level0_literals())
    # x1/x2/x3 were only ever assigned under the cube.
    for lit in level0:
        assert (lit >> 1) == 0, "cube-conditional unit leaked: {}".format(lit)
    assert mk_lit(0) in level0
    # Cross-check against brute force: each level-0 unit holds in every
    # model of the bare formula.
    for bits in itertools.product([0, 1], repeat=4):
        if all(any(bits[l >> 1] ^ (l & 1) for l in c) for c in clauses):
            for lit in level0:
                assert bits[lit >> 1] ^ (lit & 1) == 1


def test_units_learnt_under_cube_stay_globally_valid():
    # Level-0 units recorded *during* a cube run come from learnt unit
    # clauses, which are implied by the formula alone — check them
    # against the brute-force model set of the original CNF.
    rng = random.Random(11)
    n = 8
    clauses = random_3sat(n, 30, rng)
    solver, ok = make_solver(clauses, n)
    if not ok:
        return
    solver.solve(assumptions=[mk_lit(0), mk_lit(1, True)], conflict_budget=200)
    level0 = solver.level0_literals()
    models = [
        bits
        for bits in itertools.product([0, 1], repeat=n)
        if all(any(bits[l >> 1] ^ (l & 1) for l in c) for c in clauses)
    ]
    for lit in level0:
        for bits in models:
            assert bits[lit >> 1] ^ (lit & 1) == 1


def test_statistics_populated():
    rng = random.Random(7)
    clauses = random_3sat(20, 85, rng)
    solver, _ = make_solver(clauses, 20)
    solver.solve()
    assert solver.num_decisions > 0
    assert solver.num_propagations > 0

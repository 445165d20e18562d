"""White-box invariant checks on the CDCL solver's internal state."""

import random
from collections import Counter

import pytest

from repro.cube import splitter
from repro.sat import Solver, mk_lit
from repro.sat.types import FALSE, TRUE, UNDEF, lit_neg


def random_3sat(n, m, rng):
    return [
        [mk_lit(v, rng.random() < 0.5) for v in rng.sample(range(n), 3)]
        for _ in range(m)
    ]


def check_watch_invariants(solver):
    """Every clause of length >= 2 is watched by exactly its first two
    literals, and watch lists point back at real clauses."""
    watched = {}
    for lit in range(2 * solver.n_vars):
        for clause in solver.watches[lit]:
            watched.setdefault(id(clause), []).append(lit)
    for clause in solver.clauses + solver.learnts:
        key = id(clause)
        lits = clause.lits
        assert key in watched, "clause not watched: {}".format(clause)
        expected = sorted([lit_neg(lits[0]), lit_neg(lits[1])])
        assert sorted(watched[key]) == expected


def check_trail_invariants(solver):
    """Trail literals are all TRUE, levels are monotone, reasons valid."""
    for i, lit in enumerate(solver.trail):
        assert solver.val[lit] == TRUE
    for lim in solver.trail_lim:
        assert 0 <= lim <= len(solver.trail)
    assert solver.trail_lim == sorted(solver.trail_lim)


def check_value_invariants(solver):
    """``val`` is literal-indexed: a variable's two literals are UNDEF
    together or complementary, and the assigned variables are exactly
    the trail's."""
    val = solver.val
    assert len(val) == 2 * solver.n_vars
    for v in range(solver.n_vars):
        pos, neg = val[2 * v], val[2 * v + 1]
        if pos == UNDEF:
            assert neg == UNDEF
        else:
            assert pos in (TRUE, FALSE) and pos ^ 1 == neg
    assigned = {v for v in range(solver.n_vars) if val[2 * v] != UNDEF}
    assert assigned == {lit >> 1 for lit in solver.trail}


def check_heap_invariants(solver):
    """Every unassigned variable has a live heap entry at its current
    activity, and no variable has two: ``heap_key[v]`` names the one
    entry ``(-key, v)`` the decision heap holds for ``v``."""
    entries = Counter(solver._heap)
    for v in range(solver.n_vars):
        key = solver.heap_key[v]
        if solver.val[2 * v] == UNDEF:
            assert key == solver.activity[v]
        if key is not None:
            assert entries[(-key, v)] == 1


def check_all(solver):
    check_watch_invariants(solver)
    check_trail_invariants(solver)
    check_value_invariants(solver)
    check_heap_invariants(solver)


@pytest.mark.parametrize("seed", range(10))
def test_invariants_after_solving(seed):
    rng = random.Random(seed)
    n = rng.randint(10, 25)
    solver = Solver()
    solver.ensure_vars(n)
    ok = True
    for c in random_3sat(n, rng.randint(2 * n, 5 * n), rng):
        ok = solver.add_clause(c) and ok
    if not ok:
        return
    solver.solve(conflict_budget=3000)
    check_all(solver)


@pytest.mark.parametrize("seed", range(5))
def test_invariants_after_budget_interrupt(seed):
    rng = random.Random(100 + seed)
    from repro.satcomp.generators import pigeonhole

    solver = Solver()
    f = pigeonhole(6)
    for c in f.clauses:
        solver.add_clause(c)
    verdict = solver.solve(conflict_budget=25)
    assert verdict is None
    assert solver.decision_level == 0
    check_all(solver)
    # Resume and finish: state must still be coherent.
    assert solver.solve(conflict_budget=100000) is False


@pytest.mark.parametrize("seed", range(3))
def test_invariants_during_and_after_split(seed):
    from repro.satcomp.generators import random_ksat

    formula = random_ksat(60, 256, seed=seed)
    solver = Solver()
    solver.ensure_vars(formula.n_vars)
    assert solver.add_clauses(formula.clauses)
    assert solver.propagate() is None
    propagate = solver.propagate
    nodes = []

    def checked_propagate():
        confl = propagate()
        check_all(solver)
        nodes.append(solver.decision_level)
        return confl

    solver.propagate = checked_propagate
    out = splitter.CubeSet()
    splitter._descend(solver, splitter._ranked_vars(formula), 5, [], out, set())
    assert max(nodes) == 5 and len(out.cubes) + len(out.refuted) > 1
    assert solver.decision_level == 0
    check_all(solver)


def test_incremental_clause_addition_between_solves():
    solver = Solver()
    solver.ensure_vars(3)
    solver.add_clause([mk_lit(0), mk_lit(1)])
    assert solver.solve() is True
    # Add more constraints and re-solve (incremental usage).
    solver.add_clause([mk_lit(0, True)])
    solver.add_clause([mk_lit(1, True), mk_lit(2)])
    assert solver.solve() is True
    assert solver.model[0] == FALSE
    assert solver.model[1] == TRUE
    assert solver.model[2] == TRUE
    solver.add_clause([mk_lit(2, True), mk_lit(1, True)])
    solver.add_clause([mk_lit(1)])
    assert solver.solve() is False


def test_model_snapshot_survives_backtrack():
    solver = Solver()
    solver.ensure_vars(2)
    solver.add_clause([mk_lit(0), mk_lit(1)])
    assert solver.solve() is True
    model = list(solver.model)
    # The solver returns at level 0; the model snapshot must be intact.
    assert solver.decision_level == 0
    assert model[0] in (TRUE, FALSE)
    assert any(v == TRUE for v in model)


# -- level-0 simplification ----------------------------------------------------


def _php_with_trailing_units():
    # Pigeon 0 in hole 0 and pigeon 1 not in hole 5, given last: most
    # clauses are settled only after every long clause is watched.
    from repro.satcomp.generators import pigeonhole

    formula = pigeonhole(6)
    units = [[mk_lit(0)], [mk_lit(1 * 6 + 5, True)]]
    return formula.clauses, units


@pytest.fixture
def simplify_runs(monkeypatch):
    """Check the solver right after every ``_simplify`` pass that ran:
    it is at level 0, every problem-clause literal is unassigned (none
    satisfied, none false at level 0), and the watches are intact.
    Yields the running ``num_simplified`` after each such pass."""
    runs = []
    simplify = Solver._simplify

    def checked(solver):
        mark = (solver._simp_assigns, solver._simp_props)
        simplify(solver)
        if (solver._simp_assigns, solver._simp_props) == mark:
            return  # throttled
        assert solver.decision_level == 0
        val = solver.val
        assert all(val[l] == UNDEF for c in solver.clauses for l in c.lits)
        check_watch_invariants(solver)
        runs.append(solver.num_simplified)

    monkeypatch.setattr(Solver, "_simplify", checked)
    return runs


def _solve_in_two_steps(config=None):
    """Budgeted solve on the long clauses, the units added at level 0,
    then the solve resumed; returns the solver, its proof and the
    verdicts."""
    from repro.sat import DratProof

    long_clauses, units = _php_with_trailing_units()
    solver = Solver(config)
    solver.proof = DratProof()
    assert solver.add_clauses(long_clauses)
    first = solver.solve(conflict_budget=20)
    assert solver.add_clauses(units)
    return solver, [first, solver.solve()]


def test_simplified_clauses_hold_only_unassigned_literals(simplify_runs):
    from repro.sat import DratProof

    long_clauses, units = _php_with_trailing_units()
    solver = Solver()
    solver.proof = DratProof()
    assert solver.add_clauses(long_clauses + units)
    loaded = len(solver.clauses)
    assert solver.solve() is False
    # The pass at the start of solve() ran and removed clauses.
    assert simplify_runs and simplify_runs[0] > 0
    assert solver.num_simplified == simplify_runs[-1]
    assert len(solver.clauses) == loaded - solver.num_simplified
    check_all(solver)


def test_simplification_leaves_learnts_and_search_untouched(
    simplify_runs, monkeypatch
):
    from repro.sat import SolverConfig, check_rup

    # A small learnt budget so reduce_db runs between the passes too.
    config = SolverConfig(learnt_keep_base=20, learnt_keep_step=5)
    solver, verdicts = _solve_in_two_steps(config)
    assert verdicts == [None, False]
    assert len(simplify_runs) >= 2 and solver.num_simplified > 0
    assert solver.num_reductions > 0
    check_watch_invariants(solver)

    monkeypatch.setattr(Solver, "_simplify", lambda solver: None)
    plain, plain_verdicts = _solve_in_two_steps(config)
    assert plain.num_simplified == 0
    assert plain_verdicts == verdicts
    assert [c.lits for c in solver.learnts] == [c.lits for c in plain.learnts]
    assert solver.proof.steps == plain.proof.steps
    for name in ("conflicts", "decisions", "propagations", "restarts",
                 "reductions"):
        assert getattr(solver, "num_" + name) == getattr(plain, "num_" + name)
    assert solver.level0_literals() == plain.level0_literals()

    # The proof logs no line for the removed or stripped clauses and
    # still checks against the original formula.
    long_clauses, units = _php_with_trailing_units()
    assert check_rup(solver.n_vars, long_clauses + units, solver.proof)

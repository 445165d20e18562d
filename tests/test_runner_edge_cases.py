"""Edge-case tests for the experiment runner."""

import time

from repro.anf import parse_system
from repro.core.config import Config
from repro.experiments import Problem, run_instance
from repro.portfolio import CdclBackend, stop_rule
from repro.sat import CnfFormula, mk_lit
from repro.sat.dimacs import parity_clauses


def within(seconds):
    return stop_rule(time.monotonic() + seconds)


FAST = Config(xl_sample_bits=8, elimlin_sample_bits=8,
              sat_conflict_start=500, sat_conflict_max=1000, max_iterations=2)


def test_unsat_anf_input_without_bosphorus():
    ring, polys = parse_system("x1\nx1 + 1")
    problem = Problem.from_anf("unsat", ring, polys, expected=False)
    res = run_instance(problem, "minisat", False, timeout_s=5,
                       bosphorus_config=FAST)
    assert res.verdict is False


def test_unsat_anf_input_with_bosphorus():
    ring, polys = parse_system("x1\nx1 + 1")
    problem = Problem.from_anf("unsat", ring, polys, expected=False)
    res = run_instance(problem, "minisat", True, timeout_s=5,
                       bosphorus_config=FAST)
    assert res.verdict is False


def test_timeout_returns_none_verdict():
    # Pigeonhole too hard for a near-zero budget.
    from repro.satcomp.generators import pigeonhole

    problem = Problem.from_cnf("php9", pigeonhole(9), expected=False)
    res = run_instance(problem, "minisat", False, timeout_s=0.05)
    assert res.verdict is None
    assert res.seconds >= 0.05


def test_empty_formula_is_sat():
    formula = CnfFormula(3)
    res = CdclBackend("minisat").solve(formula, stop=within(5))
    verdict, model = res.status, res.model
    assert verdict is True
    assert len(model) == 3


def test_lingeling_model_extends_over_eliminated_vars():
    # Variable 1 is BVE-eliminable; the reported model must still be total
    # and satisfy the original clauses.
    formula = CnfFormula(3)
    formula.add_clause([mk_lit(0), mk_lit(1)])
    formula.add_clause([mk_lit(1, True), mk_lit(2)])
    res = CdclBackend("lingeling").solve(formula, stop=within(5))
    verdict, model = res.status, res.model
    assert verdict is True
    for clause in formula.clauses:
        assert any(model[l >> 1] ^ (l & 1) for l in clause)


def test_cms_gets_recovered_xors_on_cnf():
    # An UNSAT xor cycle written as plain CNF: cms should settle it
    # without search thanks to recovery + GJE.
    formula = CnfFormula(3)
    for variables in ([0, 1], [1, 2], [0, 2]):
        for clause in parity_clauses(variables, 1):
            formula.add_clause(clause)
    res = CdclBackend("cms").solve(formula, stop=within(5))
    verdict, conflicts = res.status, res.conflicts
    assert verdict is False
    assert conflicts == 0


def test_past_deadline_returns_unsolved_immediately():
    # Regression: a deadline already in the past used to buy one free
    # conflict slice before the wall clock was consulted.
    from repro.satcomp.generators import pigeonhole

    formula = pigeonhole(9)
    start = time.monotonic()
    res = CdclBackend("minisat").solve(
        formula, stop=stop_rule(time.monotonic())
    )
    verdict, model, conflicts = res.status, res.model, res.conflicts
    assert verdict is None
    assert model is None
    assert conflicts == 0
    assert time.monotonic() - start < 0.5


def test_solve_with_budget_past_deadline_runs_no_slice():
    from repro.portfolio.backends import sliced_solve
    from repro.sat import Solver
    from repro.satcomp.generators import pigeonhole

    solver = Solver()
    formula = pigeonhole(9)
    solver.ensure_vars(formula.n_vars)
    for clause in formula.clauses:
        solver.add_clause(clause)
    assert sliced_solve(solver, stop_rule(time.monotonic())) is None
    assert solver.num_conflicts == 0


def test_problem_constructors():
    ring, polys = parse_system("x1 + 1")
    p = Problem.from_anf("a", ring, polys)
    assert p.kind == "anf" and p.expected is True
    q = Problem.from_cnf("c", CnfFormula(1))
    assert q.kind == "cnf" and q.expected is None


def test_timeout_stops_bosphorus_before_it_decides():
    # Bosphorus decides this instance only after more than a second;
    # the cell's deadline reaches its loop, so the cell ends unsolved
    # instead of answering late.
    from repro.ciphers import simon

    inst = simon.generate_instance(2, 6, seed=1)
    problem = Problem.from_anf("simon-2-6", inst.ring, inst.polynomials)
    res = run_instance(problem, "minisat", True, timeout_s=0.05)
    assert res.verdict is None


def test_invalid_model_demotes_the_cell_and_fails_the_family(monkeypatch):
    # A backend claiming SAT with the all-false model, which violates
    # x1 + x2 + 1: the cell is unsolved, and the grid stops loudly.
    import pytest

    from repro.experiments.runner import _run_family_cell
    from repro.portfolio import BackendResult

    def liar(self, formula, conflict_budget=None, stop=None, assumptions=()):
        return BackendResult(True, model=[0] * formula.n_vars)

    monkeypatch.setattr(CdclBackend, "solve", liar)
    ring, polys = parse_system("x1 + x2 + 1")
    problem = Problem.from_anf("liar", ring, polys)
    res = run_instance(problem, "minisat", False, timeout_s=5)
    assert res.verdict is None
    assert res.model_checked is False
    with pytest.raises(AssertionError, match="invalid model for liar"):
        _run_family_cell((problem, "minisat", False, 5.0, None))

"""Tests for DRAT proof logging and the RUP checker."""

import io
import random

import pytest

from repro.sat import DratProof, Solver, XorEngine, check_rup, mk_lit
from repro.satcomp import generators


def solve_with_proof(formula):
    solver = Solver()
    solver.proof = DratProof()
    solver.ensure_vars(formula.n_vars)
    ok = True
    for c in formula.clauses:
        if not solver.add_clause(c):
            ok = False
            break
    verdict = solver.solve() if ok else False
    return solver, verdict


def test_pigeonhole_proof_checks():
    for holes in (3, 4, 5):
        formula = generators.pigeonhole(holes)
        solver, verdict = solve_with_proof(formula)
        assert verdict is False
        assert check_rup(formula.n_vars, formula.clauses, solver.proof)


def test_tseitin_proof_checks():
    formula = generators.tseitin_parity(12, 3, seed=5)
    solver, verdict = solve_with_proof(formula)
    assert verdict is False
    assert check_rup(formula.n_vars, formula.clauses, solver.proof)


@pytest.mark.parametrize("seed", range(10))
def test_random_unsat_proofs_check(seed):
    rng = random.Random(seed)
    n = rng.randint(5, 9)
    from repro.sat.dimacs import CnfFormula

    formula = CnfFormula(n)
    for _ in range(8 * n):
        vs = rng.sample(range(n), 3)
        formula.add_clause([mk_lit(v, rng.random() < 0.5) for v in vs])
    solver, verdict = solve_with_proof(formula)
    if verdict is False:
        assert check_rup(formula.n_vars, formula.clauses, solver.proof)


def test_bogus_proof_rejected():
    formula = generators.pigeonhole(3)
    proof = DratProof()
    proof.add([mk_lit(0)])  # not RUP for PHP out of thin air? check:
    proof.add_empty()
    # The empty clause is not RUP after only that bogus step.
    assert not check_rup(formula.n_vars, formula.clauses, proof)


def test_proof_without_empty_clause_rejected():
    formula = generators.pigeonhole(3)
    solver, verdict = solve_with_proof(formula)
    assert verdict is False
    trimmed = DratProof()
    trimmed.steps = [s for s in solver.proof.steps if s[1]][:3]
    assert not check_rup(formula.n_vars, formula.clauses, trimmed)


def test_deletions_are_recorded_and_tolerated():
    # Force DB reductions with a small keep budget on a hard instance.
    from repro.sat.solver import SolverConfig

    formula = generators.pigeonhole(6)
    solver = Solver(SolverConfig(learnt_keep_base=50, learnt_keep_step=10))
    solver.proof = DratProof()
    solver.ensure_vars(formula.n_vars)
    for c in formula.clauses:
        solver.add_clause(c)
    assert solver.solve() is False
    assert any(op == "d" for op, _ in solver.proof.steps)
    assert check_rup(formula.n_vars, formula.clauses, solver.proof)


def test_write_format():
    proof = DratProof()
    proof.add([mk_lit(0), mk_lit(1, True)])
    proof.delete([mk_lit(0)])
    proof.add_empty()
    buf = io.StringIO()
    proof.write(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "1 -2 0"
    assert lines[1] == "d 1 0"
    assert lines[2] == "0"


def test_xor_engine_conflicts_with_proof_logging():
    solver = Solver()
    solver.proof = DratProof()
    with pytest.raises(ValueError):
        solver.attach_xor_engine(XorEngine())


def test_trivial_unsat_from_units():
    from repro.sat.dimacs import CnfFormula

    formula = CnfFormula(1)
    formula.add_clause([mk_lit(0)])
    formula.add_clause([mk_lit(0, True)])
    solver, verdict = solve_with_proof(formula)
    assert verdict is False
    assert check_rup(formula.n_vars, formula.clauses, solver.proof)

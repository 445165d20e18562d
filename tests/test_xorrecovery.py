"""Tests for XOR recovery from CNF (the CryptoMiniSat detection trick)."""

import itertools

import pytest

from repro.sat import (
    CnfFormula,
    Solver,
    XorEngine,
    formula_with_recovered_xors,
    mk_lit,
    recover_xors,
)
from repro.sat.dimacs import parity_clauses


def xor_clauses(variables, rhs):
    """Encode an XOR as its 2^(l-1) forbidding clauses."""
    return list(parity_clauses(variables, rhs))


@pytest.mark.parametrize("rhs", [0, 1])
@pytest.mark.parametrize("width", range(1, 7))
def test_parity_clauses_models_are_the_parity_models(width, rhs):
    clauses = xor_clauses(list(range(width)), rhs)
    assert len(clauses) == 1 << (width - 1)
    for bits in itertools.product((0, 1), repeat=width):
        satisfied = all(
            any(bits[l >> 1] ^ (l & 1) for l in clause) for clause in clauses
        )
        assert satisfied == (sum(bits) % 2 == rhs)


@pytest.mark.parametrize("rhs", [0, 1])
@pytest.mark.parametrize("width", range(2, 7))
def test_recover_xors_inverts_parity_clauses(width, rhs):
    variables = [9, 2, 14, 5, 0, 7][:width]  # not sorted
    clauses = xor_clauses(variables, rhs)
    xors, used = recover_xors(clauses)
    assert xors == [(sorted(variables), rhs)]
    assert sorted(used) == list(range(len(clauses)))


def test_recovers_simple_xor():
    clauses = xor_clauses([0, 1, 2], 1)
    xors, used = recover_xors(clauses)
    assert xors == [([0, 1, 2], 1)]
    assert used == [0, 1, 2, 3]


def test_recovers_rhs_zero():
    clauses = xor_clauses([3, 5], 0)
    xors, _ = recover_xors(clauses)
    assert xors == [([3, 5], 0)]


def test_partial_group_not_recovered():
    clauses = xor_clauses([0, 1, 2], 1)[:-1]
    xors, _ = recover_xors(clauses)
    assert xors == []


def test_mixed_clauses_untouched():
    clauses = xor_clauses([0, 1, 2], 1) + [[mk_lit(3), mk_lit(4)]]
    xors, used = recover_xors(clauses)
    assert len(xors) == 1
    assert 4 not in used


def test_duplicate_variable_clause_ignored():
    clauses = [[mk_lit(0), mk_lit(0, True), mk_lit(1)]]
    xors, _ = recover_xors(clauses)
    assert xors == []


def test_width_limit_respected():
    clauses = xor_clauses(list(range(7)), 1)
    xors, _ = recover_xors(clauses)
    assert xors == []


def test_recovered_xors_semantically_correct():
    for rhs in (0, 1):
        clauses = xor_clauses([0, 1, 2, 3], rhs)
        xors, _ = recover_xors(clauses)
        assert len(xors) == 1
        variables, got_rhs = xors[0]
        for bits in itertools.product([0, 1], repeat=4):
            clause_ok = all(
                any(bits[l >> 1] ^ (l & 1) for l in c) for c in clauses
            )
            xor_ok = sum(bits[v] for v in variables) % 2 == got_rhs
            assert clause_ok == xor_ok


def test_formula_with_recovered_xors_equisatisfiable():
    formula = CnfFormula(5)
    for c in xor_clauses([0, 1, 2], 1):
        formula.add_clause(c)
    for c in xor_clauses([2, 3], 1):
        formula.add_clause(c)
    formula.add_clause([mk_lit(4)])
    enriched = formula_with_recovered_xors(formula, drop_used=True)
    assert len(enriched.xors) == 2
    # Solve with the xor engine and check the model on the original.
    solver = Solver()
    solver.ensure_vars(enriched.n_vars)
    for c in enriched.clauses:
        solver.add_clause(c)
    engine = XorEngine()
    for vs, rhs in enriched.xors:
        engine.add_xor(vs, rhs)
    solver.attach_xor_engine(engine)
    assert solver.solve() is True
    model = [1 if v == 1 else 0 for v in solver.model]
    for c in formula.clauses:
        assert any(model[l >> 1] ^ (l & 1) for l in c)


def test_unsat_xor_cycle_detected_through_recovery():
    formula = CnfFormula(3)
    for c in xor_clauses([0, 1], 1) + xor_clauses([1, 2], 1) + xor_clauses([0, 2], 1):
        formula.add_clause(c)
    enriched = formula_with_recovered_xors(formula, drop_used=True)
    assert len(enriched.xors) == 3
    solver = Solver()
    solver.ensure_vars(3)
    for c in enriched.clauses:
        solver.add_clause(c)
    engine = XorEngine()
    for vs, rhs in enriched.xors:
        engine.add_xor(vs, rhs)
    solver.attach_xor_engine(engine)
    assert solver.solve() is False
    assert solver.num_conflicts == 0  # GJE alone settles it

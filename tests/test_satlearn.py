"""Tests for conflict-bounded SAT fact learning (paper section II-D)."""

from repro.anf import AnfSystem, Poly, parse_system
from repro.core import Config, propagate, run_sat
from repro.sat import UNSAT


def system_of(text):
    ring, polys = parse_system(text)
    return AnfSystem(ring, polys)


def test_unsat_appends_contradiction():
    sys_ = system_of("x1*x2 + 1\nx1*x2")  # x1x2 = 1 and = 0
    result = run_sat(sys_, Config())
    assert result.status is UNSAT
    assert result.facts == [Poly.one()]


def test_sat_reports_model():
    sys_ = system_of("x1 + 1\nx1*x2 + 1")
    result = run_sat(sys_, Config())
    assert result.status is True
    assert result.model is not None
    assert result.model[1] == 1 and result.model[2] == 1


def test_paper_section2e_sat_learns_units():
    """Section II-E: after Karnaugh conversion, BCP alone fixes x2, x4, x5.

    We hand the SAT step the example system augmented with the facts the
    earlier steps learnt (x3 = 1, x1 = 1), as in the paper's narrative.
    """
    sys_ = system_of("""
x1*x2 + x3 + x4 + 1
x1*x2*x3 + x1 + x3 + 1
x1*x3 + x3*x4*x5 + x3
x2*x3 + x3*x5 + 1
x2*x3 + x5 + 1
x3 + 1
x1 + 1
""")
    propagate(sys_)
    result = run_sat(sys_, Config())
    # The solver decides the instance (it is fully determined).
    assert result.status is True
    assert result.model[1:6] == [1, 1, 1, 1, 0]


def test_level0_units_translated_to_anf():
    # x1 forced true through CNF reasoning: (x1∨x2)(x1∨¬x2) plus filler.
    sys_ = system_of("""
x1*x2 + x2
x1*x2 + x1*x3 + x2 + x3
""")
    result = run_sat(sys_, Config())
    for fact in result.facts:
        assert fact.is_linear() or fact.as_monomial_assignment() is not None


def test_facts_are_sound():
    """Every SAT-learnt fact must hold in every solution of the system."""
    import itertools

    text = """
x1*x2 + x3
x2 + x4 + 1
x3*x4 + x1
"""
    sys_ = system_of(text)
    result = run_sat(sys_, Config())
    _, polys = parse_system(text)
    solutions = [
        bits
        for bits in itertools.product([0, 1], repeat=5)
        if all(p.evaluate(list(bits)) == 0 for p in polys)
    ]
    assert solutions
    for fact in result.facts:
        for sol in solutions:
            assert fact.evaluate(list(sol)) == 0, fact


def test_budget_zero_still_collects_bcp_facts():
    sys_ = system_of("x1 + 1\nx1*x2 + x3*x4 + x2 + 1")
    result = run_sat(sys_, Config(), conflict_budget=0)
    # Even with no conflicts allowed, level-0 BCP units are harvested.
    assert result.status in (True, None)


def test_monomial_facts_disabled_by_default():
    sys_ = system_of("x1*x2 + 1\nx3 + x1*x2 + 1")
    result = run_sat(sys_, Config())
    for fact in result.facts:
        assert fact.degree() <= 1, "aux monomial fact leaked: {}".format(fact)


"""Tests for ANF propagation (paper section II-A)."""

import pytest

from repro.anf import AnfSystem, ContradictionError, Poly, parse_system
from repro.core import materialize, propagate, state_polynomials


def build(text):
    ring, polys = parse_system(text)
    return AnfSystem(ring, polys)


def test_unit_assignment_positive():
    sys_ = build("x1 + 1")
    stats = propagate(sys_)
    assert stats.assignments == 1
    assert sys_.state.value(1) == 1
    assert len(sys_) == 0


def test_unit_assignment_negative():
    sys_ = build("x1")
    propagate(sys_)
    assert sys_.state.value(1) == 0


def test_monomial_assignment_forces_all_ones():
    sys_ = build("x1*x2*x3 + 1")
    stats = propagate(sys_)
    assert stats.monomial_assignments == 1
    assert sys_.state.value(1) == 1
    assert sys_.state.value(2) == 1
    assert sys_.state.value(3) == 1


def test_equivalence_detection():
    sys_ = build("x1 + x2")
    stats = propagate(sys_)
    assert stats.equivalences == 1
    root1, p1 = sys_.state.find(1)
    root2, p2 = sys_.state.find(2)
    assert root1 == root2 and p1 == p2


def test_negated_equivalence():
    sys_ = build("x1 + x2 + 1")
    propagate(sys_)
    root1, p1 = sys_.state.find(1)
    root2, p2 = sys_.state.find(2)
    assert root1 == root2 and p1 != p2


def test_iterative_cascade():
    # x1=1 makes x1x2+x3 into x2+x3, an equivalence.
    sys_ = build("x1 + 1\nx1*x2 + x3")
    propagate(sys_)
    r2, p2 = sys_.state.find(2)
    r3, p3 = sys_.state.find(3)
    assert r2 == r3 and p2 == p3
    assert len(sys_) == 0


def test_cascade_to_contradiction():
    sys_ = build("x1 + 1\nx2 + 1\nx1*x2 + 1 + 1")  # x1x2 = 0 but both are 1
    with pytest.raises(ContradictionError):
        propagate(sys_)


def test_paper_example_full_solve():
    """Section II-E: facts from XL alone propagate to the unique solution."""
    sys_ = build("""
x1*x2 + x3 + x4 + 1
x1*x2*x3 + x1 + x3 + 1
x1*x3 + x3*x4*x5 + x3
x2*x3 + x3*x5 + 1
x2*x3 + x5 + 1
""")
    # Add the facts the paper says XL learns.
    from repro.anf.parser import parse_polynomial
    for fact in ["x2*x3*x4 + 1", "x1*x3*x4 + 1", "x1 + x5 + 1",
                 "x1 + x4", "x3 + 1", "x1 + x2"]:
        sys_.add(parse_polynomial(fact, sys_.ring))
    propagate(sys_)
    assert sys_.state.value(1) == 1
    assert sys_.state.value(2) == 1
    assert sys_.state.value(3) == 1
    assert sys_.state.value(4) == 1
    assert sys_.state.value(5) == 0
    assert len(sys_) == 0


def test_residuals_are_normalized():
    sys_ = build("x1 + 1\nx1*x2 + x3*x4 + x2")
    propagate(sys_)
    # x1=1: second equation becomes x2 + x3x4 + x2 = x3x4.
    assert len(sys_) == 1
    assert sys_.polynomials[0] == Poly([(3, 4)])


def test_state_polynomials_emit_units_and_equivalences():
    sys_ = build("x1 + 1\nx2 + x3")
    propagate(sys_)
    emitted = state_polynomials(sys_)
    texts = {p.to_string() for p in emitted}
    assert "x1 + 1" in texts
    assert any("x2" in t and "x3" in t for t in texts)


def test_materialize_is_satisfiable_consistent():
    sys_ = build("x1 + 1\nx1*x2 + x3")
    propagate(sys_)
    full = materialize(sys_)
    # The original solutions must satisfy the materialised system.
    for x2 in (0, 1):
        assignment = [0, 1, x2, x2]  # x3 = x2 after x1=1
        assert all(p.evaluate(assignment) == 0 for p in full)


def test_propagation_idempotent():
    sys_ = build("x1*x2 + x3\nx3 + x4")
    propagate(sys_)
    snapshot = list(sys_.polynomials)
    stats = propagate(sys_)
    assert not stats.changed
    assert list(sys_.polynomials) == snapshot

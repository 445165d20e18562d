"""Tests for linearisation and GJE fact extraction (Table I machinery)."""

from oracles.linearize import rows_to_polys_scalar, to_matrix_scalar
from repro.anf import Poly, Ring, parse_system
from repro.anf.parser import parse_polynomial
from repro.core import Linearization, extract_facts, gauss_jordan


def polys_of(text):
    _, polys = parse_system(text)
    return polys


def test_columns_ordered_descending_deglex_constant_last():
    polys = polys_of("x1*x2 + x3 + 1")
    lin = Linearization(polys)
    assert lin.columns[0] == (1, 2)
    assert lin.columns[-1] == ()


def test_table1_column_order():
    """The expanded Table I system has columns x1x2x3, x2x3, x1x3, x1x2, ..."""
    base = polys_of("x1*x2 + x1 + 1\nx2*x3 + x3")
    expanded = list(base)
    ring = Ring(4)
    for mult in ["x1", "x2", "x3"]:
        m = parse_polynomial(mult, ring)
        for p in base:
            q = p * m
            if not q.is_zero():
                expanded.append(q)
    lin = Linearization(expanded)
    names = [
        "*".join("x{}".format(v) for v in m) if m else "1" for m in lin.columns
    ]
    assert names == ["x1*x2*x3", "x2*x3", "x1*x3", "x1*x2", "x3", "x2", "x1", "1"]


def test_matrix_roundtrip():
    polys = polys_of("x1*x2 + x3\nx3 + 1")
    lin = Linearization(polys)
    m = lin.to_matrix(polys)
    assert lin.rows_to_polys(m) == polys


def test_gauss_jordan_table1():
    """Reducing the degree-1 expansion of Table I yields the paper's facts."""
    base = polys_of("x1*x2 + x1 + 1\nx2*x3 + x3")
    expanded = list(base)
    ring = Ring(4)
    for mult in ["x1", "x2", "x3"]:
        m = parse_polynomial(mult, ring)
        for p in base:
            q = p * m
            if not q.is_zero():
                expanded.append(q)
    reduced = gauss_jordan(expanded)
    texts = {p.to_string() for p in reduced}
    # The last three rows of Table I(b): x3, x2, x1 + 1.
    assert "x3" in texts
    assert "x2" in texts
    assert "x1 + 1" in texts


def test_gauss_jordan_empty():
    assert gauss_jordan([]) == []
    assert gauss_jordan([Poly.zero()]) == []


def test_extract_facts_classification():
    linear, monos = extract_facts(polys_of("""
x1 + x2 + 1
x1*x2 + 1
x1*x2*x3
x1*x2 + x3
"""))
    assert linear == polys_of("x1 + x2 + 1")
    assert set(monos) == set(polys_of("x1*x2 + 1\nx1*x2*x3"))


def test_packed_matrix_matches_scalar_oracle():
    """Bulk encode/decode must agree with the per-cell/per-row seed path,
    including beyond 64 variables (multi-limb masks, multi-word rows)."""
    import random

    from repro.anf.polynomial import Poly

    rng = random.Random(3)
    polys = []
    for _ in range(40):
        ms = []
        for _ in range(rng.randrange(1, 6)):
            deg = rng.randrange(0, 4)
            ms.append(tuple(sorted(rng.sample(range(0, 130), deg))))
        polys.append(Poly(ms))
    polys = [p for p in polys if not p.is_zero()]
    lin = Linearization(polys)
    packed = lin.to_matrix(polys)
    scalar = to_matrix_scalar(lin, polys)
    assert (packed.to_dense() == scalar.to_dense()).all()
    packed.rref()
    assert lin.rows_to_polys(packed) == rows_to_polys_scalar(lin, packed)


def test_to_matrix_unknown_monomial_raises():
    polys = polys_of("x1*x2 + x3")
    lin = Linearization(polys)
    import pytest

    with pytest.raises(KeyError):
        lin.to_matrix(polys_of("x4"))


def test_extract_facts_drops_interned_constant():
    """The constant filter is identity against ``mono.ONE`` — a bare
    ``m ⊕ 1`` classifies as a monomial fact, a two-monomial nonlinear
    row without a constant does not."""
    _, monos = extract_facts(polys_of("x1*x2 + 1"))
    assert monos == polys_of("x1*x2 + 1")
    _, monos = extract_facts(polys_of("x1*x2 + x3*x4"))
    assert monos == []


def test_gje_consistency_preserves_solutions():
    """Row reduction never changes the solution set."""
    polys = polys_of("x1*x2 + x3\nx1 + x2\nx2*x3 + x1 + 1")
    reduced = gauss_jordan(polys)
    import itertools
    for bits in itertools.product([0, 1], repeat=4):
        assignment = list(bits)
        orig_ok = all(p.evaluate(assignment) == 0 for p in polys)
        red_ok = all(p.evaluate(assignment) == 0 for p in reduced)
        assert orig_ok == red_ok

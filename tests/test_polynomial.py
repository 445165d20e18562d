"""Unit and property tests for repro.anf.polynomial.Poly."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import polynomial as oracle
from repro.anf import Poly, parse_polynomial, Ring

N_VARS = 5

monomials = st.lists(st.integers(0, N_VARS - 1), max_size=3).map(
    lambda vs: tuple(sorted(set(vs)))
)
polys = st.lists(monomials, max_size=6).map(Poly)
assignments = st.lists(st.integers(0, 1), min_size=N_VARS, max_size=N_VARS)


def P(text):
    return parse_polynomial(text, Ring(N_VARS + 1))


# -- construction ------------------------------------------------------------


def test_duplicate_monomials_cancel():
    assert Poly([(1,), (1,)]).is_zero()


def test_triple_monomial_survives_once():
    assert Poly([(1,), (1,), (1,)]) == Poly.variable(1)


def test_zero_one_constants():
    assert Poly.zero().is_zero()
    assert Poly.one().is_one()
    assert Poly.constant(0).is_zero()
    assert Poly.constant(1).is_one()
    assert Poly.constant(2).is_zero()


def test_is_constant():
    assert Poly.zero().is_constant()
    assert Poly.one().is_constant()
    assert not Poly.variable(0).is_constant()


# -- queries -------------------------------------------------------------------


def test_degree():
    assert Poly.zero().degree() == 0
    assert Poly.one().degree() == 0
    assert P("x1 + x2*x3").degree() == 2


def test_variables():
    assert P("x1*x2 + x3 + 1").variables() == {1, 2, 3}


def test_is_linear():
    assert P("x1 + x2 + 1").is_linear()
    assert not P("x1*x2").is_linear()
    assert Poly.zero().is_linear()


def test_leading_monomial_deglex():
    assert P("x1 + x2*x3").leading_monomial() == (2, 3)
    with pytest.raises(ValueError):
        Poly.zero().leading_monomial()


def test_has_constant_term():
    assert P("x1 + 1").has_constant_term()
    assert not P("x1").has_constant_term()


# -- the paper's fact shapes ---------------------------------------------------


def test_as_unit():
    assert P("x3").as_unit() == (3, 0)
    assert P("x3 + 1").as_unit() == (3, 1)
    assert P("x1 + x2").as_unit() is None
    assert P("x1*x2 + 1").as_unit() is None


def test_as_equivalence():
    assert P("x1 + x2").as_equivalence() == (2, 1, 0)
    assert P("x1 + x2 + 1").as_equivalence() == (2, 1, 1)
    assert P("x1 + x2*x3").as_equivalence() is None
    assert P("x1").as_equivalence() is None


def test_as_monomial_assignment():
    assert P("x1*x2*x3 + 1").as_monomial_assignment() == (1, 2, 3)
    assert P("x1 + 1").as_monomial_assignment() == (1,)
    assert P("x1*x2").as_monomial_assignment() is None


def test_as_linear_equation():
    assert P("x1 + x3 + 1").as_linear_equation() == ((1, 3), 1)
    assert P("x1*x2").as_linear_equation() is None
    assert Poly.zero().as_linear_equation() == ((), 0)


# -- arithmetic -------------------------------------------------------------------


def test_addition_is_xor():
    a, b = P("x1 + x2"), P("x2 + x3")
    assert a + b == P("x1 + x3")


def test_multiplication_distributes():
    assert P("x1 + x2") * P("x1") == P("x1 + x1*x2")


def test_paper_elimlin_simplification():
    # (x2 + x3)*x2 + x2*x3 + 1 should simplify to x2 + 1 (section II-C).
    lhs = P("x2 + x3") * P("x2") + P("x2*x3 + 1")
    assert lhs == P("x2 + 1")


def test_substitute_constant():
    p = P("x1*x2 + x2*x3 + 1")
    assert p.substitute(2, Poly.one()) == P("x1 + x3 + 1")
    assert p.substitute(2, Poly.zero()) == Poly.one()


def test_substitute_by_poly():
    p = P("x1*x2 + x2*x3 + 1")
    # x1 := x2 + x3 gives (x2+x3)x2 + x2x3 + 1 = x2 + 1.
    assert p.substitute(1, P("x2 + x3")) == P("x2 + 1")


def test_substitute_missing_var_is_identity():
    p = P("x1 + x2")
    assert p.substitute(4, Poly.one()) is p


def test_evaluate():
    p = P("x1*x2 + x3 + 1")
    assert p.evaluate([0, 1, 1, 0, 0, 0]) == 0
    assert p.evaluate([0, 1, 1, 1, 0, 0]) == 1


def test_remap():
    p = P("x1*x2 + 1")
    assert p.remap({1: 5, 2: 6}) == Poly([(5, 6), ()])


def test_to_string_roundtrip():
    ring = Ring(6)
    p = P("x1*x2 + x3 + 1")
    assert parse_polynomial(p.to_string(), Ring(6)) == p


# -- algebraic property tests -------------------------------------------------------


@given(polys, polys)
def test_add_commutative(a, b):
    assert a + b == b + a


@given(polys, polys, polys)
def test_add_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(polys)
def test_add_self_is_zero(a):
    assert (a + a).is_zero()


@given(polys, polys)
def test_mul_commutative(a, b):
    assert a * b == b * a


@settings(max_examples=50)
@given(polys, polys, polys)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=50)
@given(polys, polys, polys)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, assignments)
def test_square_evaluates_identically(p, assignment):
    # p² and p agree as Boolean functions.
    assert (p * p).evaluate(assignment) == p.evaluate(assignment)


@given(polys, polys, assignments)
def test_evaluation_homomorphism(a, b, assignment):
    assert (a + b).evaluate(assignment) == a.evaluate(assignment) ^ b.evaluate(assignment)
    assert (a * b).evaluate(assignment) == a.evaluate(assignment) & b.evaluate(assignment)


@given(polys, st.integers(0, N_VARS - 1), polys, assignments)
def test_substitution_evaluation_consistency(p, var, replacement, assignment):
    # Substituting then evaluating == evaluating with the replaced value.
    substituted = p.substitute(var, replacement)
    modified = list(assignment)
    modified[var] = replacement.evaluate(assignment)
    assert substituted.evaluate(assignment) == p.evaluate(modified)


@given(polys)
def test_hash_equals_imply_equal(p):
    q = Poly(p.monomials)
    assert p == q and hash(p) == hash(q)


def test_substitute_mask_native_matches_tuple_oracle():
    """The mask-native substitute kernel must agree with the pre-mask
    remove/mul loop at any width (here: across the one-limb boundary)."""
    import random

    rng = random.Random(9)
    for _ in range(60):
        width = rng.choice([10, 63, 64, 65, 100])
        ms = []
        for _ in range(rng.randrange(1, 6)):
            deg = rng.randrange(0, 4)
            ms.append(tuple(sorted(rng.sample(range(width), deg))))
        p = Poly(ms)
        var = rng.randrange(width)
        rep_ms = []
        for _ in range(rng.randrange(0, 4)):
            deg = rng.randrange(0, 3)
            rep_ms.append(tuple(sorted(rng.sample(range(width), deg))))
        replacement = Poly(rep_ms)
        assert p.substitute(var, replacement) == oracle.substitute(
            p, var, replacement
        )


def test_substitute_literals_matches_tuple_oracle():
    """The mask-native literal substitution (propagation's rewrite
    kernel) agrees with the per-variable tuple loop at any width:
    constants, aliases and negated aliases, including aliases onto a
    variable the monomial already holds."""
    import random

    rng = random.Random(11)
    for _ in range(200):
        width = rng.choice([10, 63, 64, 65, 130])
        p = Poly(
            tuple(sorted(rng.sample(range(width), rng.randrange(0, 4))))
            for _ in range(rng.randrange(1, 7))
        )
        simple = {}
        for v in rng.sample(range(width), rng.randrange(1, 5)):
            y = rng.choice([None, rng.randrange(width)])
            if y == v:
                continue
            simple[v] = (y, rng.randrange(2))
        got = p.substitute_literals(simple)
        assert got == oracle.substitute_literals(p, simple)


def test_substitute_negative_variable_raises():
    p = Poly([(1,), ()])
    with pytest.raises(ValueError):
        p.substitute(-1, Poly.zero())
    with pytest.raises(ValueError):
        oracle.substitute(p, -1, Poly.zero())

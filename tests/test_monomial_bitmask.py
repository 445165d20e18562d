"""Differential harness: width-adaptive mask path vs the tuple oracle.

A monomial is a width-adaptive int bitmask and mul/divides/lcm/remove
are bitwise ops on it; the historical sorted-tuple merges live in
``tests/oracles/monomial.py``.  These property tests cross-check the two
(decoding masks with ``as_tuple``) at widths straddling the 64-bit limb
boundaries (63, 64, 65, 127, 128, 1000 variables).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import monomial as oracle
from oracles.polynomial import poly_mul
from repro.anf import monomial as mono
from repro.anf.polynomial import Poly

#: Variable-universe widths straddling the limb boundaries.
WIDTHS = (63, 64, 65, 127, 128, 1000)

# Variable lists drawn from a width sampled per example, biased so that
# monomials regularly cross a limb boundary.
width_st = st.sampled_from(WIDTHS)


@st.composite
def monomial_pair(draw):
    width = draw(width_st)
    var = st.integers(0, width - 1)
    return draw(st.lists(var, max_size=8)), draw(st.lists(var, max_size=8))


def tuple_mul(a, b):
    """Independent reference: sorted union of variable sets."""
    return tuple(sorted(set(a) | set(b)))


T = mono.as_tuple


# -- differential fuzz: mask path vs tuple oracle ------------------------------


@given(monomial_pair())
def test_make_matches_oracle(pair):
    a, _ = pair
    assert T(mono.make(a)) == oracle.make(a) == tuple(sorted(set(a)))


@given(monomial_pair())
def test_mul_matches_oracle_and_reference(pair):
    a, b = pair
    ta, tb = oracle.make(a), oracle.make(b)
    got = T(mono.make(a) | mono.make(b))
    assert got == oracle.mul(ta, tb) == tuple_mul(ta, tb)


@given(monomial_pair())
def test_divides_matches_oracle(pair):
    a, b = pair
    ma, mb = mono.make(a), mono.make(b)
    ta, tb = oracle.make(a), oracle.make(b)
    assert (ma & mb == ma) == oracle.divides(ta, tb)
    assert (ma & mb == ma) == set(ta).issubset(set(tb))


@given(monomial_pair())
def test_lcm_matches_oracle(pair):
    a, b = pair
    ta, tb = oracle.make(a), oracle.make(b)
    got = T(mono.make(a) | mono.make(b))
    assert got == oracle.lcm(ta, tb) == tuple_mul(ta, tb)


@given(monomial_pair())
def test_remove_matches_oracle(pair):
    a, _ = pair
    m = mono.make(a)
    t = oracle.make(a)
    for v in mono.bits_of(m):
        assert T(m & ~(1 << v)) == oracle.remove(t, v)
        assert T(m & ~(1 << v)) == tuple(x for x in t if x != v)


@given(monomial_pair())
def test_intern_matches_oracle(pair):
    """A sorted tuple survives the round trip through its mask, and every
    ordering of its variables gives the same mask."""
    a, _ = pair
    m = tuple(sorted(set(a)))
    assert T(mono.make(m)) == oracle.intern(m) == m
    assert mono.make(m) == mono.make(reversed(a)) == mono.make(a)


@given(monomial_pair())
def test_deglex_key_matches_oracle(pair):
    a, b = pair
    key = mono.deglex_desc_key
    ma, mb = mono.make(a), mono.make(b)
    ta, tb = oracle.make(a), oracle.make(b)
    want_a, want_b = oracle.deglex_key(ta), oracle.deglex_key(tb)
    assert (key(ma) == key(mb)) == (want_a == want_b)
    assert (key(ma) < key(mb)) == (want_a > want_b)


@st.composite
def mask_list(draw):
    """Distinct masks over one sampled width, many of equal degree."""
    width = draw(st.sampled_from((63, 64, 65, 128, 257)))
    var = st.integers(0, width - 1)
    sets = draw(
        st.lists(st.frozensets(var, max_size=6), max_size=24, unique=True)
    )
    return [sum(1 << v for v in s) for s in sets]


def _tuple_of_mask(mask):
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


@given(mask_list())
def test_mask_deglex_key_equals_tuple_order(masks):
    """The mask-native key sorts exactly like the frozen tuple order, in
    both directions; it fixes the ``Linearization`` column order and the
    converter's in-chunk term order (and so the CNF numbering)."""
    tuple_key = lambda mk: oracle.deglex_key(_tuple_of_mask(mk))
    assert sorted(masks, key=mono.deglex_desc_key) == sorted(
        masks, key=tuple_key, reverse=True
    )
    assert sorted(masks, key=mono.deglex_desc_key, reverse=True) == sorted(
        masks, key=tuple_key
    )


@settings(max_examples=25)
@given(st.sampled_from(WIDTHS), st.integers(0, 2**32 - 1))
def test_poly_product_matches_oracle_at_width(width, seed):
    """Whole-Poly products agree between the two paths at every width."""
    rng = random.Random(seed)

    def rand_poly():
        return Poly(
            oracle.make(rng.sample(range(width), rng.randint(0, 3)))
            for _ in range(4)
        )

    p, q = rand_poly(), rand_poly()
    assert p * q == poly_mul(p, q)


# -- limb boundaries and mask round trips -------------------------------------


@pytest.mark.parametrize("width", WIDTHS)
def test_mask_round_trip_at_width(width):
    vs = [0, width - 1, width // 2]
    mask = mono.make(vs)
    assert mask > 0
    assert T(mask) == oracle.make(vs)
    assert mono.make(T(mask)) == mask


def test_wide_monomials_are_masked_and_interned():
    """Beyond one limb the mask keeps working — no sentinel, no fallback."""
    m = mono.make([1, mono.LIMB_BITS + 3])
    assert m == (1 << 1) | (1 << (mono.LIMB_BITS + 3))
    assert m == mono.make([mono.LIMB_BITS + 3, 1])


def test_from_mask_any_width():
    assert T(1 << mono.LIMB_BITS) == (mono.LIMB_BITS,)
    assert T(1 << 1000) == (1000,)
    with pytest.raises(ValueError):
        T(-1)


def test_mul_across_limb_boundary():
    """Operands in different limbs still produce the sorted-tuple union."""
    ma = mono.make([2, 63])
    mb = mono.make([64, 65, 700])
    assert ma.bit_length() == 64
    assert mb.bit_length() == 701
    assert T(ma | mb) == (2, 63, 64, 65, 700)
    assert T(mb | ma) == (2, 63, 64, 65, 700)
    assert ma & (ma | mb) == ma
    assert mb & ma != mb


def test_raw_tuples_interoperate_with_interned():
    """Tuples in any variable order build equal, equally hashed
    polynomials; products of their masks decode to the sorted union."""
    raw = Poly([(2, 5)])
    shuffled = Poly([(5, 2)])
    assert raw == shuffled
    assert hash(raw) == hash(shuffled)
    assert T(mono.make((2, 5)) | mono.make((3,))) == (2, 3, 5)


# -- negative variable indices: uniform ValueError, mask path and oracle -----


@pytest.mark.parametrize("bad", [[-1], [3, -2, 5], [-(10**9)]])
def test_make_rejects_negative_indices_on_both_paths(bad):
    with pytest.raises(ValueError):
        mono.make(bad)
    with pytest.raises(ValueError):
        oracle.make(bad)


def test_mask_of_rejects_negative_indices():
    with pytest.raises(ValueError):
        Poly([(-3,)])
    with pytest.raises(ValueError):
        Poly([(0, 2, -1)])


def test_intern_and_remove_reject_negative_indices_on_both_paths():
    with pytest.raises(ValueError):
        Poly.variable(-4)
    with pytest.raises(ValueError):
        Poly([(1, 2)]).substitute(-1, Poly.one())
    with pytest.raises(ValueError):
        oracle.intern((-4,))
    with pytest.raises(ValueError):
        oracle.remove((1, 2), -1)


# -- polynomial-level round trip ----------------------------------------------


def test_random_polynomial_products_match_reference():
    """Poly arithmetic over masked monomials matches a set-based oracle."""
    rng = random.Random(42)

    def rand_poly(n_vars, n_terms):
        return Poly(
            oracle.make(rng.sample(range(n_vars), rng.randint(0, 3)))
            for _ in range(n_terms)
        )

    def oracle_mul(p, q):
        acc = set()
        for a in p.monomials:
            for b in q.monomials:
                m = tuple_mul(a, b)
                acc.symmetric_difference_update({m})
        return acc

    for n_vars in (10, 63, 100, 300):  # below, at, and above one limb
        for _ in range(50):
            p, q = rand_poly(n_vars, 4), rand_poly(n_vars, 4)
            assert (p * q).monomials == frozenset(oracle_mul(p, q))


def test_poly_evaluate_agrees_across_boundary():
    rng = random.Random(7)
    n_vars = mono.LIMB_BITS + 10
    for _ in range(30):
        p = Poly(
            oracle.make(rng.sample(range(n_vars), rng.randint(0, 3)))
            for _ in range(5)
        )
        assignment = [rng.randint(0, 1) for _ in range(n_vars)]
        # Oracle: evaluate monomial-by-monomial with plain sets.
        want = 0
        for m in p.monomials:
            want ^= int(all(assignment[v] for v in m))
        assert p.evaluate(assignment) == want
        amask = mono.assignment_mask(assignment)
        assert p.evaluate_mask(amask) == want


def test_support_mask_matches_variables():
    p = Poly([(1, 70), (500, 128), ()])
    assert p.variables() == frozenset([1, 70, 128, 500])
    assert p.support_mask() == (1 << 1) | (1 << 70) | (1 << 128) | (1 << 500)
    assert mono.bits_of(p.support_mask()) == sorted(p.variables())

"""Differential harness: width-adaptive mask path vs the tuple oracle.

The monomial layer shadows *every* monomial with a width-adaptive int
bitmask and routes mul/divides/lcm/remove through bitwise ops; the
historical sorted-tuple merges live in ``tests/oracles/monomial.py``.
These property tests cross-check the two at widths straddling the
64-bit limb boundaries (63, 64, 65, 127, 128, 1000 variables) and cover
the mask <-> packed-word interop with ``gf2.matrix``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import monomial as oracle
from oracles.polynomial import poly_mul
from repro.anf import monomial as mono
from repro.anf.polynomial import Poly
from repro.gf2 import GF2Matrix

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


# -- differential fuzz: mask path vs tuple oracle ------------------------------


@given(monomial_pair())
def test_make_matches_oracle(pair):
    a, _ = pair
    assert mono.make(a) == oracle.make(a) == tuple(sorted(set(a)))


@given(monomial_pair())
def test_mul_matches_oracle_and_reference(pair):
    a, b = pair
    ma, mb = mono.make(a), mono.make(b)
    got = mono.mul(ma, mb)
    assert got == oracle.mul(ma, mb) == tuple_mul(ma, mb)


@given(monomial_pair())
def test_divides_matches_oracle(pair):
    a, b = pair
    ma, mb = mono.make(a), mono.make(b)
    assert mono.divides(ma, mb) == oracle.divides(ma, mb)
    assert mono.divides(ma, mb) == set(ma).issubset(set(mb))


@given(monomial_pair())
def test_lcm_matches_oracle(pair):
    a, b = pair
    ma, mb = mono.make(a), mono.make(b)
    assert mono.lcm(ma, mb) == oracle.lcm(ma, mb) == tuple_mul(ma, mb)


@given(monomial_pair())
def test_remove_matches_oracle(pair):
    a, _ = pair
    m = mono.make(a)
    for v in m:
        assert mono.remove(m, v) == oracle.remove(m, v)
        assert mono.remove(m, v) == tuple(x for x in m if x != v)


@given(monomial_pair())
def test_intern_matches_oracle(pair):
    a, _ = pair
    m = tuple(sorted(set(a)))
    assert mono.intern(m) == oracle.intern(m) == m
    # Interning is identity-stable on the mask path at any width.
    assert mono.intern(m) is mono.intern(tuple(m))


@given(monomial_pair())
def test_deglex_key_matches_oracle(pair):
    a, b = pair
    ma, mb = mono.make(a), mono.make(b)
    assert mono.deglex_key(ma) == oracle.deglex_key(ma)
    assert (mono.deglex_key(ma) < mono.deglex_key(mb)) == (
        oracle.deglex_key(ma) < oracle.deglex_key(mb)
    )


@settings(max_examples=25)
@given(st.sampled_from(WIDTHS), st.integers(0, 2**32 - 1))
def test_poly_product_matches_oracle_at_width(width, seed):
    """Whole-Poly products agree between the two paths at every width."""
    rng = random.Random(seed)

    def rand_poly():
        return Poly(
            mono.make(rng.sample(range(width), rng.randint(0, 3)))
            for _ in range(4)
        )

    p, q = rand_poly(), rand_poly()
    assert p * q == poly_mul(p, q)


# -- limb boundaries and mask round trips -------------------------------------


@pytest.mark.parametrize("width", WIDTHS)
def test_mask_round_trip_at_width(width):
    m = mono.make([0, width - 1, width // 2])
    mask = mono.mask_of(m)
    assert mask > 0
    assert mono.from_mask(mask) == m
    assert mono.intern(m) is mono.from_mask(mask)


def test_wide_monomials_are_masked_and_interned():
    """Beyond one limb the mask keeps working — no sentinel, no fallback."""
    m = mono.make([1, mono.LIMB_BITS + 3])
    assert mono.mask_of(m) == (1 << 1) | (1 << (mono.LIMB_BITS + 3))
    assert mono.intern(m) is mono.make([mono.LIMB_BITS + 3, 1])


def test_from_mask_any_width():
    assert mono.from_mask(1 << mono.LIMB_BITS) == (mono.LIMB_BITS,)
    assert mono.from_mask(1 << 1000) == (1000,)
    with pytest.raises(ValueError):
        mono.from_mask(-1)


def test_mul_across_limb_boundary():
    """Operands in different limbs still produce the sorted-tuple union."""
    ma = mono.make([2, 63])
    mb = mono.make([64, 65, 700])
    assert mono.mask_of(ma).bit_length() == 64
    assert mono.mask_of(mb).bit_length() == 701
    assert mono.mul(ma, mb) == (2, 63, 64, 65, 700)
    assert mono.mul(mb, ma) == (2, 63, 64, 65, 700)
    assert mono.divides(ma, mono.mul(ma, mb))
    assert not mono.divides(mb, ma)


def test_raw_tuples_interoperate_with_interned():
    """Raw tuples built by callers compare and hash like interned ones."""
    raw = (2, 5)
    interned = mono.make([5, 2])
    assert raw == interned
    assert hash(raw) == hash(interned)
    assert mono.mul(raw, (3,)) == (2, 3, 5)


# -- negative variable indices: uniform ValueError, mask path and oracle -----


@pytest.mark.parametrize("bad", [[-1], [3, -2, 5], [-(10**9)]])
def test_make_rejects_negative_indices_on_both_paths(bad):
    with pytest.raises(ValueError):
        mono.make(bad)
    with pytest.raises(ValueError):
        oracle.make(bad)


def test_mask_of_rejects_negative_indices():
    with pytest.raises(ValueError):
        mono.mask_of((-3,))
    with pytest.raises(ValueError):
        mono.mask_of((0, 2, -1))


def test_intern_and_remove_reject_negative_indices_on_both_paths():
    with pytest.raises(ValueError):
        mono.intern((-4,))
    with pytest.raises(ValueError):
        mono.remove((1, 2), -1)
    with pytest.raises(ValueError):
        oracle.intern((-4,))
    with pytest.raises(ValueError):
        oracle.remove((1, 2), -1)


# -- packed-word interop with gf2.matrix --------------------------------------


@given(st.lists(st.integers(0, 999), max_size=12))
def test_mask_words_round_trip(vars_):
    mask = mono.mask_of(mono.make(vars_))
    words = mono.mask_words(mask)
    assert all(0 <= w < (1 << mono.LIMB_BITS) for w in words)
    assert mono.mask_from_words(words) == mask
    # Explicit padding keeps the round trip intact.
    padded = mono.mask_words(mask, n_words=len(words) + 3)
    assert len(padded) == len(words) + 3
    assert mono.mask_from_words(padded) == mask


def test_mask_words_rejects_too_few_words_and_bad_input():
    with pytest.raises(ValueError):
        mono.mask_words(1 << 130, n_words=2)
    with pytest.raises(ValueError):
        mono.mask_words(-1)
    with pytest.raises(ValueError):
        mono.mask_from_words([1 << mono.LIMB_BITS])


@given(st.lists(st.lists(st.integers(0, 199), max_size=10), max_size=8))
def test_gf2matrix_from_masks_matches_from_rows(rows):
    n_cols = 200
    masks = [mono.mask_of(mono.make(r)) for r in rows]
    a = GF2Matrix.from_masks(masks, n_cols)
    b = GF2Matrix.from_rows([sorted(set(r)) for r in rows], n_cols)
    assert (a.to_dense() == b.to_dense()).all()
    # Row masks round-trip through the packed words.
    for i, mask in enumerate(masks):
        assert a.row_mask(i) == mask
        assert a.row_cols(i) == mono.bits_of(mask)


def test_gf2matrix_from_masks_validates():
    with pytest.raises(ValueError):
        GF2Matrix.from_masks([-1], 10)
    with pytest.raises(IndexError):
        GF2Matrix.from_masks([1 << 10], 10)
    with pytest.raises(IndexError):
        GF2Matrix(2, 8).row_mask(5)


# -- polynomial-level round trip ----------------------------------------------


def test_random_polynomial_products_match_reference():
    """Poly arithmetic over masked monomials matches a set-based oracle."""
    rng = random.Random(42)

    def rand_poly(n_vars, n_terms):
        return Poly(
            mono.make(rng.sample(range(n_vars), rng.randint(0, 3)))
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
            mono.make(rng.sample(range(n_vars), rng.randint(0, 3)))
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
    p = Poly([mono.make([1, 70]), mono.make([128, 500]), mono.ONE])
    assert p.variables() == frozenset([1, 70, 128, 500])
    assert p.support_mask() == (1 << 1) | (1 << 70) | (1 << 128) | (1 << 500)
    assert mono.bits_of(p.support_mask()) == sorted(p.variables())

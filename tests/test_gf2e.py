"""Tests for GF(2^e) arithmetic, concrete and symbolic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.anf import Poly
from repro.ciphers.gf2e import GF2e

F16 = GF2e(4)
F256 = GF2e(8)

elem16 = st.integers(0, 15)


def test_modulus_defaults():
    assert F16.modulus == 0b10011
    assert F256.modulus == 0b100011011


def test_bad_modulus_rejected():
    with pytest.raises(ValueError):
        GF2e(4, modulus=0b100011011)


def test_mul_known_values_aes():
    # AES: 0x57 * 0x83 = 0xc1 (FIPS-197 example).
    assert F256.mul(0x57, 0x83) == 0xC1
    # 0x57 * 0x13 = 0xfe.
    assert F256.mul(0x57, 0x13) == 0xFE


def test_inverse_aes():
    assert F256.inverse(0) == 0
    for x in [1, 2, 0x53, 0xCA, 0xFF]:
        assert F256.mul(x, F256.inverse(x)) == 1


def test_inverse_all_of_gf16():
    for x in range(1, 16):
        assert F16.mul(x, F16.inverse(x)) == 1


def test_pow():
    assert F16.pow(2, 0) == 1
    assert F16.pow(2, 4) == F16.mul(F16.mul(2, 2), F16.mul(2, 2))


@given(elem16, elem16)
def test_mul_commutative(a, b):
    assert F16.mul(a, b) == F16.mul(b, a)


@given(elem16, elem16, elem16)
def test_mul_associative(a, b, c):
    assert F16.mul(F16.mul(a, b), c) == F16.mul(a, F16.mul(b, c))


@given(elem16, elem16, elem16)
def test_distributive(a, b, c):
    assert F16.mul(a, b ^ c) == F16.mul(a, b) ^ F16.mul(a, c)


@given(elem16)
def test_frobenius_additivity(a):
    # Squaring is linear over GF(2): (a+b)^2 = a^2 + b^2.
    for b in range(16):
        assert F16.mul(a ^ b, a ^ b) == F16.mul(a, a) ^ F16.mul(b, b)


# -- symbolic consistency ---------------------------------------------------------


def sym_of(value, e=4):
    return [Poly.constant((value >> i) & 1) for i in range(e)]


def sym_value(polys):
    out = 0
    for i, p in enumerate(polys):
        assert p.is_constant()
        out |= (1 if p.is_one() else 0) << i
    return out


@given(elem16, elem16)
def test_sym_mul_matches_concrete(a, b):
    assert sym_value(F16.sym_mul(sym_of(a), sym_of(b))) == F16.mul(a, b)


@given(elem16)
def test_sym_square_matches_concrete(a):
    assert sym_value(F16.sym_square(sym_of(a))) == F16.mul(a, a)


@given(elem16, elem16)
def test_sym_scale_matches_concrete(a, c):
    assert sym_value(F16.sym_scale(sym_of(a), c)) == F16.mul(a, c)


def test_sym_mul_on_variables_is_bilinear():
    # Symbolic product of two variable vectors yields quadratic bits.
    a = [Poly.variable(i) for i in range(4)]
    b = [Poly.variable(4 + i) for i in range(4)]
    prod = F16.sym_mul(a, b)
    assert all(p.degree() == 2 for p in prod if not p.is_zero())


def test_element_bits_roundtrip():
    for x in range(16):
        bits = F16.element_to_bits(x)
        assert sum(b << i for i, b in enumerate(bits)) == x

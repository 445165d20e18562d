"""Tests for the symbolic tracing toolkit (builder + bit vectors)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.anf import Poly
from repro.encode import (
    SystemBuilder,
    TracedBit,
    add_many,
    adder,
    and_vec,
    const_vector,
    constrain_vector,
    rotl,
    rotr,
    shr,
    to_int,
    xor_vec,
)

words16 = st.integers(0, 0xFFFF)


def test_traced_bit_xor_and_not():
    a = TracedBit(Poly.variable(0), 1)
    b = TracedBit(Poly.variable(1), 0)
    assert (a ^ b).value == 1
    assert (a & b).value == 0
    assert (~a).value == 0
    assert (~a).poly == Poly.variable(0) + Poly.one()


def test_const_vector_roundtrip():
    assert to_int(const_vector(0xBEEF, 16)) == 0xBEEF


@given(words16, words16)
def test_xor_vec_concrete(a, b):
    va, vb = const_vector(a, 16), const_vector(b, 16)
    assert to_int(xor_vec(va, vb)) == a ^ b


@given(words16, words16)
def test_and_vec_concrete(a, b):
    assert to_int(and_vec(const_vector(a, 16), const_vector(b, 16))) == a & b


@given(words16, st.integers(0, 15))
def test_rotl_concrete(a, k):
    expected = ((a << k) | (a >> (16 - k))) & 0xFFFF if k else a
    assert to_int(rotl(const_vector(a, 16), k)) == expected


@given(words16, st.integers(0, 15))
def test_rotr_inverse_of_rotl(a, k):
    v = const_vector(a, 16)
    assert to_int(rotr(rotl(v, k), k)) == a


@given(words16, st.integers(0, 16))
def test_shr_concrete(a, k):
    assert to_int(shr(const_vector(a, 16), k)) == a >> k


@given(words16, words16)
def test_adder_concrete(a, b):
    builder = SystemBuilder()
    s = adder(builder, const_vector(a, 16), const_vector(b, 16))
    assert to_int(s) == (a + b) & 0xFFFF
    # Pure constants: no equations generated.
    assert not builder.equations


def test_adder_with_variables_generates_equations():
    builder = SystemBuilder()
    a = builder.new_bits([(0xAB >> i) & 1 for i in range(8)])
    b = builder.new_bits([(0x47 >> i) & 1 for i in range(8)])
    s = adder(builder, a, b)
    assert to_int(s) == (0xAB + 0x47) & 0xFF
    assert builder.equations
    assert builder.check_witness()
    assert max(p.degree() for p in builder.equations) <= 2


@given(st.lists(words16, min_size=2, max_size=4))
def test_add_many_concrete(values):
    builder = SystemBuilder()
    out = add_many(builder, [const_vector(v, 16) for v in values])
    assert to_int(out) == sum(values) & 0xFFFF


def test_width_mismatch_raises():
    with pytest.raises(ValueError):
        xor_vec(const_vector(0, 4), const_vector(0, 5))
    builder = SystemBuilder()
    with pytest.raises(ValueError):
        adder(builder, const_vector(0, 4), const_vector(0, 5))


def test_constrain_checks_witness():
    builder = SystemBuilder()
    bit = builder.new_bit(1)
    builder.constrain(bit, 1)
    with pytest.raises(AssertionError):
        builder.constrain(bit, 0)


def test_constrain_vector_adds_equations():
    builder = SystemBuilder()
    v = builder.new_bits([1, 0, 1])
    constrain_vector(builder, v, 0b101)
    assert len(builder.equations) == 3
    assert builder.check_witness()


def test_define_caps_expression():
    builder = SystemBuilder()
    a = builder.new_bit(1)
    b = builder.new_bit(1)
    product = a & b
    y = builder.define(product)
    assert y.value == 1
    assert len(y.poly) == 1
    assert builder.check_witness()


def test_define_if_deep_only_when_large():
    builder = SystemBuilder()
    bits = [builder.new_bit(0) for _ in range(7)]
    small = bits[0]
    for b in bits[1:6]:
        small = small ^ b
    assert len(small.poly) == 6
    same = builder.define_if_deep(small)
    assert same is small
    big = small ^ bits[6]
    fresh = builder.define_if_deep(big)
    assert fresh is not big

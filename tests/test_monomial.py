"""Unit tests for repro.anf.monomial: monomials are int masks.

The ring operations are bitwise ops on the masks (product and lcm ``|``,
divisibility ``a & b == a``, division ``& ~bit``, degree ``bit_count``);
these tests pin them against the sorted-tuple results they replace,
decoding with :func:`repro.anf.monomial.as_tuple`.
"""

from hypothesis import given
from hypothesis import strategies as st

from oracles import monomial as oracle
from repro.anf import monomial as mono
from repro.anf.polynomial import Poly

var_sets = st.lists(st.integers(0, 30), max_size=8)

M = mono.make
T = mono.as_tuple


def divides(a, b):
    return a & b == a


def test_make_sorts_and_dedupes():
    assert T(M([3, 1, 3])) == (1, 3)
    assert M([3, 1, 3]) == M([1, 3]) == 0b1010
    assert M([]) == mono.ONE
    assert T(M([])) == ()


def test_one_is_empty():
    assert mono.ONE == 0
    assert T(mono.ONE) == ()
    assert mono.ONE.bit_count() == 0


def test_degree():
    assert M((1, 2, 5)).bit_count() == 3


def test_mul_merges():
    assert T(M((1, 2)) | M((2, 3))) == (1, 2, 3)
    assert T(M(()) | M((4,))) == (4,)
    assert T(M((4,)) | M(())) == (4,)


def test_mul_idempotent_on_same_variable():
    # x * x = x in the Boolean ring.
    assert T(M((7,)) | M((7,))) == (7,)


def test_contains():
    assert M((1, 2)) >> 2 & 1
    assert not M((1, 2)) >> 3 & 1


def test_divides():
    assert divides(M((1,)), M((1, 2)))
    assert divides(M(()), M((1, 2)))
    assert not divides(M((3,)), M((1, 2)))
    assert not divides(M((1, 2, 3)), M((1, 2)))


def test_remove():
    assert T(M((1, 2, 3)) & ~(1 << 2)) == (1, 3)


def test_lcm_is_union():
    assert T(M((1, 2)) | M((2, 3))) == oracle.lcm((1, 2), (2, 3)) == (1, 2, 3)


def test_evaluate():
    x0x2 = Poly.from_monomial(M((0, 2)))
    assert x0x2.evaluate({0: 1, 2: 1}) == 1
    assert x0x2.evaluate({0: 1, 2: 0}) == 0
    assert Poly.from_monomial(mono.ONE).evaluate({}) == 1
    assert x0x2.evaluate_mask(mono.assignment_mask([1, 0, 1])) == 1
    assert x0x2.evaluate_mask(mono.assignment_mask([1, 0, 0])) == 0


def test_deglex_orders_by_degree_first():
    # Ascending keys list monomials in descending deglex.
    key = mono.deglex_desc_key
    assert key(M((5,))) > key(M((1, 2)))
    assert key(M((1, 2))) > key(M((1, 3)))
    assert key(M(())) > key(M((0,)))


@given(var_sets, var_sets)
def test_mul_commutative(a, b):
    ma, mb = M(a), M(b)
    assert ma | mb == mb | ma
    assert T(ma | mb) == oracle.mul(oracle.make(a), oracle.make(b))


@given(var_sets, var_sets, var_sets)
def test_mul_associative(a, b, c):
    ma, mb, mc = M(a), M(b), M(c)
    assert (ma | mb) | mc == ma | (mb | mc)
    want = oracle.mul(oracle.mul(oracle.make(a), oracle.make(b)), oracle.make(c))
    assert T(ma | mb | mc) == want


@given(var_sets)
def test_mul_idempotent(a):
    m = M(a)
    assert m | m == m
    assert T(m) == oracle.mul(oracle.make(a), oracle.make(a))


@given(var_sets, var_sets)
def test_divides_iff_subset(a, b):
    ma, mb = M(a), M(b)
    assert divides(ma, mb) == set(a).issubset(set(b))
    assert divides(ma, mb) == oracle.divides(oracle.make(a), oracle.make(b))


def test_constant_monomial_identity():
    """The constant monomial is the falsy mask 0 on every path.

    ``extract_facts``, the fact classifiers and ``has_constant_term``
    recognise the constant as the mask ``mono.ONE``; this pins that
    ``make``, division of the last variable, ``Poly.one`` and the tuple
    constructor all yield it, and that it decodes to ``()``.
    """
    assert not mono.ONE  # falsy: `if m` skips exactly the constant
    assert mono.ONE == 0
    assert M([]) == mono.ONE
    assert T(mono.ONE) == ()
    assert M((5,)) & ~(1 << 5) == mono.ONE
    assert Poly.one().masks == frozenset([mono.ONE])
    assert Poly([()]).has_constant_term()
    assert Poly([()]).monomials == frozenset([()])

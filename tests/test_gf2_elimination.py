"""Differential tests for the Four-Russians elimination kernel.

The kernel contract (the tentpole invariant of the one-kernel refactor)
is *bit-for-bit* equality with the seed Gauss–Jordan oracle
(`rref_gj` in `tests/oracles/gf2.py`): identical pivot list, identical row order,
identical row content — not merely the same row space.  These tests pin
that contract across packed-word boundaries (widths 63/64/65/128/257),
random rank deficiency, column caps and block-width overrides, plus a
Simon32-XL-scale differential run marked slow.
"""

import numpy as np
import pytest

from oracles.gf2 import rref_gj
from repro.gf2 import GF2Matrix, eliminate
from repro.gf2.elimination import choose_block_size, m4ri_rref

WIDTHS = [63, 64, 65, 128, 257]


def _random_matrix(rng, n_rows, n_cols, density, deficient):
    a = (rng.random((n_rows, n_cols)) < density).astype(np.uint8)
    if deficient and n_rows >= 2:
        # Plant rank deficiency: overwrite rows with sums/copies.
        for _ in range(max(1, n_rows // 4)):
            i, j = rng.integers(0, n_rows, size=2)
            if i != j:
                a[i] = (a[i] + a[j]) % 2
    return a


def _assert_matches_oracle(a, *, max_cols=None, block=None):
    m = GF2Matrix.from_dense(a)
    oracle = GF2Matrix.from_dense(a)
    pivots = m4ri_rref(m, max_cols=max_cols, block=block)
    assert pivots == rref_gj(oracle, max_cols=max_cols)
    assert (m._data == oracle._data).all()
    return pivots


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("density", [0.02, 0.2, 0.6])
def test_kernel_matches_oracle_across_widths(width, density):
    rng = np.random.default_rng(width * 1000 + int(density * 100))
    for deficient in (False, True):
        a = _random_matrix(rng, 40, width, density, deficient)
        _assert_matches_oracle(a)


@pytest.mark.parametrize("width", [65, 128])
@pytest.mark.parametrize("max_cols", [0, 1, 33, 64, 65, 200])
def test_kernel_matches_oracle_with_column_cap(width, max_cols):
    rng = np.random.default_rng(width + max_cols)
    a = _random_matrix(rng, 30, width, 0.3, True)
    _assert_matches_oracle(a, max_cols=max_cols)


@pytest.mark.parametrize("block", [1, 2, 5, 8, 11, 16, 64])
def test_kernel_matches_oracle_for_block_overrides(block):
    rng = np.random.default_rng(block)
    a = _random_matrix(rng, 50, 130, 0.15, True)
    _assert_matches_oracle(a, block=block)


def test_kernel_trivial_shapes():
    assert m4ri_rref(GF2Matrix(0, 5)) == []
    assert m4ri_rref(GF2Matrix(3, 1)) == []
    one = GF2Matrix.from_rows([[0]], 1)
    assert m4ri_rref(one) == [0]
    assert m4ri_rref(GF2Matrix.identity(9)) == list(range(9))


def test_choose_block_size_bounds():
    for n_rows in [0, 1, 2, 100, 5000, 10**6]:
        for n_cols in [0, 1, 3, 64, 10000]:
            k = choose_block_size(n_rows, n_cols)
            assert 1 <= k <= 16
            if n_cols:
                assert k <= max(n_cols, 1)


def test_eliminate_respects_max_cols():
    # Columns past the cap must be reduced against but never pivoted on.
    m = GF2Matrix.from_rows([[0, 2], [0, 1], [1, 2]], 3)
    pivots = eliminate(m, max_cols=2)
    assert all(p < 2 for p in pivots)
    oracle = GF2Matrix.from_rows([[0, 2], [0, 1], [1, 2]], 3)
    rref_gj(oracle, max_cols=2)
    assert (m._data == oracle._data).all()


@pytest.mark.slow
def test_kernel_matches_oracle_at_simon32_xl_scale():
    """Bit-for-bit differential run on the real Simon32 XL linearisation
    (the matrix scale the Table II pipeline reduces)."""
    from repro.anf import monomial as mono
    from repro.ciphers import simon
    from repro.core.linearize import Linearization

    inst = simon.generate_instance(2, 8, seed=7)
    rows = list(inst.polynomials)
    support = 0
    for p in inst.polynomials:
        support |= p.support_mask()
    for p in inst.polynomials:
        for v in mono.bits_of(support):
            q = p.mul_monomial((v,))
            if not q.is_zero():
                rows.append(q)
            if len(rows) >= 4000:
                break
        if len(rows) >= 4000:
            break
    lin = Linearization(rows)
    m = lin.to_matrix(rows)
    oracle = lin.to_matrix(rows)
    pivots = eliminate(m)
    assert pivots == rref_gj(oracle)
    assert (m._data == oracle._data).all()

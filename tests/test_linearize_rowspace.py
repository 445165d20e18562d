"""Property test: Gauss–Jordan preserves the linearised row space.

The packed rewrite of the linearisation layer (bulk encode via
``GF2Matrix.from_cells``, batch decode via ``rows_cols``) must not change
what ``gauss_jordan`` computes: the reduced polynomials span exactly the
same GF(2) row space as the input linearisation.  Exercised at widths
63/64/65/128/257 — both sides of every limb boundary of the width-adaptive
monomial masks.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anf.polynomial import Poly
from repro.core.linearize import Linearization, gauss_jordan

WIDTHS = [63, 64, 65, 128, 257]


def _systems(width):
    monomial = st.lists(
        st.integers(0, width - 1), min_size=0, max_size=3
    ).map(lambda vs: tuple(sorted(set(vs))))
    poly = st.lists(monomial, min_size=1, max_size=4).map(Poly)
    return st.lists(poly, min_size=1, max_size=6)


def _row_space_equal(polys_a, polys_b):
    """rank(A) == rank(B) == rank(A stacked on B) ⟺ same row space."""
    polys_a = [p for p in polys_a if not p.is_zero()]
    polys_b = [p for p in polys_b if not p.is_zero()]
    lin = Linearization(polys_a + polys_b)
    rank_a = lin.to_matrix(polys_a).rank()
    rank_b = lin.to_matrix(polys_b).rank()
    rank_ab = lin.to_matrix(polys_a + polys_b).rank()
    return rank_a == rank_b == rank_ab


@pytest.mark.parametrize("width", WIDTHS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_gauss_jordan_preserves_row_space(width, data):
    polys = data.draw(_systems(width))
    # Pin the width: one polynomial always mentions the last variable.
    polys = polys + [Poly([(0, width - 1), ()])]
    reduced = gauss_jordan(polys)
    assert _row_space_equal(polys, reduced)
    # Reduced rows are non-zero and linearly independent: rank == count.
    lin = Linearization(reduced)
    assert lin.to_matrix(reduced).rank() == len(reduced)

"""The seed matrix codecs, the oracles for the packed linearisation."""

from typing import List, Sequence

from repro.anf.polynomial import Poly
from repro.gf2.matrix import GF2Matrix


def to_matrix_scalar(lin, polynomials: Sequence[Poly]) -> GF2Matrix:
    """Per-cell twin of ``Linearization.to_matrix``: one ``set`` per
    1-cell, columns looked up by monomial tuple."""
    m = GF2Matrix(len(polynomials), lin.n_cols)
    for i, p in enumerate(polynomials):
        for monom in p.monomials:
            m.set(i, lin.column_of[monom], 1)
    return m


def rows_to_polys_scalar(lin, matrix: GF2Matrix) -> List[Poly]:
    """Per-row twin of ``Linearization.rows_to_polys``: every row decoded
    through ``row_cols``, zero rows dropped."""
    out = []
    for i in range(matrix.n_rows):
        p = Poly(lin.columns[j] for j in matrix.row_cols(i))
        if not p.is_zero():
            out.append(p)
    return out

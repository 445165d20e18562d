"""Linearisation: polynomials ↔ GF(2) matrices.

Treating each monomial as an independent variable turns an ANF into a
linear system (paper section II-B).  Columns are ordered by *descending*
degree-lexicographic monomial order with the constant column last, exactly
as in the paper's Table I, so Gauss–Jordan pivots land on high-degree
monomials first and the surviving low-degree rows are the learnable facts.

Packed column layout
--------------------
Columns are monomial *masks* (the width-adaptive int bitmasks a
:class:`~repro.anf.polynomial.Poly` is made of, see
:mod:`repro.anf.monomial`), sorted by the mask-native
:func:`~repro.anf.monomial.deglex_desc_key` without decoding a tuple,
and the column map is keyed by mask, so the hot encode path hashes ints.
Matrices are built in bulk: one flat (row, column) index pass over each
polynomial's masks feeds :meth:`~repro.gf2.matrix.GF2Matrix.from_cells`,
which scatters all 1-cells into the packed 64-bit-limb rows with a
single vectorised OR.
Decoding is batch too: :meth:`~repro.gf2.matrix.GF2Matrix.rows_cols`
bit-walks only the non-zero packed words of the reduced matrix, so the
many all-zero rows an RREF leaves behind cost nothing.  The historical
per-cell / per-row codecs live with the tests
(``tests/oracles/linearize.py``) as the equivalence oracle and the
baseline leg of the ``bench_solver_core`` linearisation benches.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

from ..anf import monomial as mono
from ..anf.polynomial import Poly
from ..gf2.elimination import eliminate
from ..gf2.matrix import GF2Matrix


class Linearization:
    """A monomial→column mapping shared by a set of polynomials.

    ``columns[j]`` is the mask of column ``j``'s monomial.
    """

    def __init__(self, polynomials: Sequence[Poly]):
        masks: Set[int] = set()
        for p in polynomials:
            masks.update(p.masks)
        masks.discard(mono.ONE)
        # Descending deglex; constant column (if any polynomial has one)
        # goes last, as in Table I.
        self.columns: List[int] = sorted(masks, key=mono.deglex_desc_key)
        self.columns.append(mono.ONE)
        self._col_of_mask: Dict[int, int] = {
            m: i for i, m in enumerate(self.columns)
        }

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    def to_matrix(self, polynomials: Sequence[Poly]) -> GF2Matrix:
        """Stack the polynomials as rows of a GF(2) matrix.

        Bulk path: one flat (row, column) index pass over the monomial
        masks, then a single vectorised scatter into the packed rows.
        Raises ``KeyError`` if a monomial has no column.
        """
        column = self._col_of_mask.__getitem__
        row_idx: List[int] = []
        col_idx: List[int] = []
        for i, p in enumerate(polynomials):
            col_idx.extend(map(column, p))
            row_idx.extend([i] * len(p))
        return GF2Matrix.from_cells(
            row_idx, col_idx, len(polynomials), self.n_cols
        )

    def rows_to_polys(self, matrix: GF2Matrix) -> List[Poly]:
        """All non-zero rows as polynomials, batch-decoded.

        One vectorised pass finds the non-zero packed words; zero rows
        (most of an RREF'd matrix) are never touched.  Distinct columns
        hold distinct masks, so each row builds its polynomial without a
        cancellation pass.
        """
        columns = self.columns
        out = []
        for cols in matrix.rows_cols():
            if cols:
                out.append(
                    Poly._from_frozenset(frozenset([columns[j] for j in cols]))
                )
        return out


def gauss_jordan(polynomials: Sequence[Poly]) -> List[Poly]:
    """GJE on the linearisation; returns the reduced non-zero polynomials.

    The output list is in row order of the reduced matrix: highest-degree
    pivots first, learnable low-degree rows at the bottom (Table I shape).
    """
    polys = [p for p in polynomials if not p.is_zero()]
    if not polys:
        return []
    lin = Linearization(polys)
    matrix = lin.to_matrix(polys)
    eliminate(matrix)
    return lin.rows_to_polys(matrix)


def extract_facts(reduced: Iterable[Poly]) -> Tuple[List[Poly], List[Poly]]:
    """Split GJE output into the paper's two learnable fact shapes.

    Returns ``(linear, monomial)`` where ``linear`` holds all rows of
    degree <= 1 and ``monomial`` holds rows of the form ``m`` or ``m ⊕ 1``
    for a single monomial of degree >= 2.  (``m ⊕ 1`` forces all its
    variables to 1; a bare ``m`` says the product vanishes, which ANF
    propagation can also exploit.)
    """
    linear: List[Poly] = []
    monomials: List[Poly] = []
    for p in reduced:
        if p.is_zero():
            continue
        if p.is_linear():
            linear.append(p)
            continue
        ms = [m for m in p if m != mono.ONE]
        if len(ms) == 1 and len(p) <= 2:
            monomials.append(p)
    return linear, monomials

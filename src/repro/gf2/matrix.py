"""Dense GF(2) linear algebra on bit-packed matrices.

Rows are packed 64 columns per ``uint64`` word in a numpy array, and
elimination is Method-of-Four-Russians (M4RI): columns are processed in
blocks of ``k``, each block builds the ``2**k`` table of pivot-row
combinations once, and every other row is cleared with a single
table-lookup XOR — see :mod:`repro.gf2.elimination`, the one kernel
every GF(2) consumer calls.  That keeps the inner loop in numpy, which
is what makes XL and ElimLin usable from pure Python.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from .elimination import eliminate

class GF2Matrix:
    """A dense matrix over GF(2) with bit-packed rows."""

    def __init__(self, n_rows: int, n_cols: int):
        """Create an all-zero ``n_rows`` x ``n_cols`` matrix."""
        if n_rows < 0 or n_cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self._words = (n_cols + 63) // 64
        self._data = np.zeros((n_rows, max(self._words, 1)), dtype=np.uint64)

    # -- construction --------------------------------------------------------

    @staticmethod
    def from_cells(
        row_idx: Sequence[int],
        col_idx: Sequence[int],
        n_rows: int,
        n_cols: int,
    ) -> "GF2Matrix":
        """Packed bulk constructor from parallel (row, column) index lists.

        Every 1-cell is scattered straight into the packed 64-bit-limb
        rows with one vectorised OR — no per-cell ``set`` calls, no
        per-row loop.  This is the linearisation layer's bulk entry
        point: callers that already hold flat column indices (e.g.
        looked up by monomial mask) skip the per-row flattening of
        :meth:`from_rows`.  Duplicate cells collapse (OR semantics).
        """
        m = GF2Matrix(n_rows, n_cols)
        if len(row_idx) != len(col_idx):
            raise ValueError("row/column index lists differ in length")
        if not len(col_idx):
            return m
        ri = np.asarray(row_idx, dtype=np.intp)
        cj = np.asarray(col_idx, dtype=np.intp)
        bad = (cj < 0) | (cj >= n_cols) | (ri < 0) | (ri >= n_rows)
        if bad.any():
            raise IndexError(
                "({}, {}) out of range".format(
                    int(ri[bad][0]), int(cj[bad][0])
                )
            )
        masks = np.uint64(1) << (cj & 63).astype(np.uint64)
        np.bitwise_or.at(m._data, (ri, cj >> 6), masks)
        return m

    @staticmethod
    def from_rows(rows: Sequence[Iterable[int]], n_cols: int) -> "GF2Matrix":
        """Build from an iterable of rows, each a set/list of 1-column indices.

        Vectorised: all (row, column) pairs are flattened once and OR-ed
        into the packed words via :meth:`from_cells` (duplicate column
        indices within a row collapse, as before).
        """
        row_idx: List[int] = []
        col_idx: List[int] = []
        for i, cols in enumerate(rows):
            for j in cols:
                row_idx.append(i)
                col_idx.append(j)
        return GF2Matrix.from_cells(row_idx, col_idx, len(rows), n_cols)

    def copy(self) -> "GF2Matrix":
        """Deep copy."""
        m = GF2Matrix(self.n_rows, self.n_cols)
        m._data = self._data.copy()
        return m

    # -- element access ------------------------------------------------------

    def get(self, i: int, j: int) -> int:
        """Entry (i, j) as 0 or 1."""
        self._check(i, j)
        return int((self._data[i, j >> 6] >> np.uint64(j & 63)) & np.uint64(1))

    def set(self, i: int, j: int, value: int) -> None:
        """Set entry (i, j) to ``value & 1``."""
        self._check(i, j)
        mask = np.uint64(1) << np.uint64(j & 63)
        if value & 1:
            self._data[i, j >> 6] |= mask
        else:
            self._data[i, j >> 6] &= ~mask

    def flip(self, i: int, j: int) -> None:
        """XOR entry (i, j) with 1."""
        self._check(i, j)
        self._data[i, j >> 6] ^= np.uint64(1) << np.uint64(j & 63)

    def _check(self, i: int, j: int) -> None:
        if not (0 <= i < self.n_rows and 0 <= j < self.n_cols):
            raise IndexError("({}, {}) out of range".format(i, j))

    # -- row level ops -------------------------------------------------------

    def row_cols(self, i: int) -> List[int]:
        """Column indices of the 1-entries in row ``i`` (ascending).

        Walks the packed words directly — one machine-int bit-walk per
        64-column word — rather than decoding the whole row into one big
        int, which would cost O(set bits x words).
        """
        out: List[int] = []
        row = self._data[i]
        for w in range(self._words):
            word = int(row[w])
            base = w << 6
            while word:
                low = word & -word
                out.append(base + low.bit_length() - 1)
                word ^= low
        return out

    def rows_cols(self) -> List[List[int]]:
        """Column indices of the 1-entries of *every* row, batch-decoded.

        One vectorised ``nonzero`` finds the non-zero packed words, and
        only those are bit-walked — all-zero rows (most of an RREF'd
        linearisation) and all-zero words cost nothing, unlike calling
        :meth:`row_cols` per row, which pays a numpy scalar conversion
        for every word of every row.  ``out[i]`` is ascending; empty for
        zero rows.
        """
        out: List[List[int]] = [[] for _ in range(self.n_rows)]
        ri, wi = np.nonzero(self._data)
        if not ri.size:
            return out
        words = self._data[ri, wi]
        for r, w, word in zip(ri.tolist(), wi.tolist(), words.tolist()):
            base = w << 6
            row = out[r]
            while word:
                low = word & -word
                row.append(base + low.bit_length() - 1)
                word ^= low
        return out

    def row_weights(self) -> "np.ndarray":
        """Number of 1-entries per row, vectorised (one popcount pass)."""
        bytes_view = self._data.view(np.uint8)
        return np.unpackbits(bytes_view, axis=1).sum(axis=1, dtype=np.int64)

    def rows_with_weight_at_most(self, k: int) -> List[int]:
        """Indices of non-zero rows with at most ``k`` ones (ascending)."""
        w = self.row_weights()
        return [int(i) for i in np.nonzero((w > 0) & (w <= k))[0]]

    def xor_row_into(self, src: int, dst: int) -> None:
        """row[dst] ^= row[src]."""
        self._data[dst] ^= self._data[src]

    def swap_rows(self, a: int, b: int) -> None:
        """Exchange two rows."""
        if a != b:
            self._data[[a, b]] = self._data[[b, a]]

    # -- elimination ---------------------------------------------------------

    def rref(
        self, max_cols: Optional[int] = None, block: Optional[int] = None
    ) -> List[int]:
        """In-place reduced row echelon form (Method of Four Russians).

        Columns are processed left to right (up to ``max_cols`` if given)
        in blocks of ``block`` (chosen from the matrix size when None).
        Returns the list of pivot column indices, in order; ``len`` of the
        result is the rank of the processed block.  Bit-for-bit identical
        to the seed column-at-a-time Gauss–Jordan (the differential
        oracle in ``tests/oracles/gf2.py``).
        """
        return eliminate(self, max_cols=max_cols, block=block)

    def rank(self) -> int:
        """Rank of the matrix (works on a copy; self is unchanged)."""
        return len(eliminate(self.copy()))

    def __repr__(self) -> str:
        return "GF2Matrix({}x{})".format(self.n_rows, self.n_cols)



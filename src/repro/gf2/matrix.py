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

import sys
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .elimination import eliminate, m4ri_rref

_LITTLE_ENDIAN = sys.byteorder == "little"


class GF2Matrix:
    """A dense matrix over GF(2) with bit-packed rows."""

    def __init__(self, n_rows: int, n_cols: int):
        """Create an all-zero ``n_rows`` x ``n_cols`` matrix."""
        if n_rows < 0 or n_cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self._words = (n_cols + 63) // 64
        # ``_data`` is a view of the first ``n_rows`` rows of the backing
        # buffer ``_buf``; ``append_row`` grows the buffer geometrically
        # so appends are amortised O(row) instead of O(matrix).
        self._buf = np.zeros((n_rows, max(self._words, 1)), dtype=np.uint64)
        self._data = self._buf

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
        rows (the :meth:`from_masks` / :meth:`row_mask` layout) with one
        vectorised OR — no per-cell ``set`` calls, no per-row loop.  This
        is the linearisation layer's bulk entry point: callers that
        already hold flat column indices (e.g. decoded from interned
        monomial masks) skip the per-row flattening of
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

    @staticmethod
    def from_dense(array) -> "GF2Matrix":
        """Build from a dense 0/1 array-like (list of lists or ndarray).

        Vectorised through ``np.packbits`` (little-endian bit order packs
        straight into our 64-bit words); ragged input is rejected by
        ``np.asarray`` exactly as before.
        """
        arr = np.asarray(array, dtype=np.uint8) & 1
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        m = GF2Matrix(arr.shape[0], arr.shape[1])
        if arr.size == 0:
            return m
        if _LITTLE_ENDIAN:
            packed = np.packbits(arr, axis=1, bitorder="little")
            pad = m._data.shape[1] * 8 - packed.shape[1]
            if pad:
                packed = np.pad(packed, ((0, 0), (0, pad)))
            m._buf = (
                np.ascontiguousarray(packed).view(np.uint64).reshape(arr.shape[0], -1)
            )
            m._data = m._buf
        else:  # pragma: no cover - big-endian fallback, element at a time
            for i in range(arr.shape[0]):
                for j in np.nonzero(arr[i])[0]:
                    m.set(i, int(j), 1)
        return m

    @staticmethod
    def from_masks(masks: Sequence[int], n_cols: int) -> "GF2Matrix":
        """Build from width-adaptive int bitmasks, one per row.

        Bit ``j`` of ``masks[i]`` becomes entry ``(i, j)``.  The masks
        are the same little-endian 64-bit-limb encoding the monomial
        layer uses (see :func:`repro.anf.monomial.mask_words`), so a row
        is one ``to_bytes`` reinterpretation — no per-bit loop.
        """
        m = GF2Matrix(len(masks), n_cols)
        nbytes = m._data.shape[1] * 8
        for i, mask in enumerate(masks):
            if mask < 0:
                raise ValueError("negative mask at row {}".format(i))
            if mask.bit_length() > n_cols:
                raise IndexError(
                    "row {} mask has bits beyond column {}".format(i, n_cols)
                )
            if mask:
                m._data[i] = np.frombuffer(
                    mask.to_bytes(nbytes, "little"), dtype="<u8"
                )
        return m

    @staticmethod
    def identity(n: int) -> "GF2Matrix":
        """The n x n identity matrix."""
        m = GF2Matrix(n, n)
        for i in range(n):
            m.set(i, i, 1)
        return m

    def copy(self) -> "GF2Matrix":
        """Deep copy (spare append capacity is not carried over)."""
        m = GF2Matrix(self.n_rows, self.n_cols)
        m._buf = self._data.copy()
        m._data = m._buf
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

    def row_mask(self, i: int) -> int:
        """Row ``i`` as a width-adaptive int bitmask (bit ``j`` = entry
        ``(i, j)``), the inverse of one :meth:`from_masks` row.

        This is the bridge to the monomial layer's masks: the packed
        ``uint64`` words reinterpret directly as a Python big int.
        """
        if not 0 <= i < self.n_rows:
            raise IndexError("row {} out of range".format(i))
        return int.from_bytes(self._data[i].astype("<u8").tobytes(), "little")

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

    def row_is_zero(self, i: int) -> bool:
        """True if row ``i`` is all zeros."""
        return not self._data[i].any()

    def xor_row_into(self, src: int, dst: int) -> None:
        """row[dst] ^= row[src]."""
        self._data[dst] ^= self._data[src]

    def swap_rows(self, a: int, b: int) -> None:
        """Exchange two rows."""
        if a != b:
            self._data[[a, b]] = self._data[[b, a]]

    def append_row(self, cols: Iterable[int]) -> int:
        """Append a row with 1s in ``cols``; returns the new row index.

        Amortised O(row): the backing buffer doubles when full (the seed
        re-allocated the whole matrix per append, making N appends
        quadratic), and ``_data`` stays a view of its first ``n_rows``
        rows.
        """
        if self.n_rows == self._buf.shape[0]:
            grown = np.zeros(
                (max(2 * self._buf.shape[0], 4), self._buf.shape[1]),
                dtype=np.uint64,
            )
            grown[: self.n_rows] = self._data
            self._buf = grown
        row = self._buf[self.n_rows]
        row[:] = 0
        for j in cols:
            if not 0 <= j < self.n_cols:
                raise IndexError(j)
            row[j >> 6] ^= np.uint64(1) << np.uint64(j & 63)
        self.n_rows += 1
        self._data = self._buf[: self.n_rows]
        return self.n_rows - 1

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
        return m4ri_rref(self, max_cols=max_cols, block=block)

    def rank(self) -> int:
        """Rank of the matrix (works on a copy; self is unchanged)."""
        return len(eliminate(self.copy()))

    # -- solving -------------------------------------------------------------

    def solve_affine(self, rhs: Sequence[int]) -> Optional[List[int]]:
        """Solve ``A x = b`` over GF(2); returns one solution or None.

        ``rhs`` is a 0/1 vector of length ``n_rows``.  Free variables are
        set to zero.
        """
        if len(rhs) != self.n_rows:
            raise ValueError("rhs length mismatch")
        aug = GF2Matrix(self.n_rows, self.n_cols + 1)
        aug._data[:, : self._words] = self._data
        # Re-pack if the extra column spills into a new word.
        for i, b in enumerate(rhs):
            if b & 1:
                aug.set(i, self.n_cols, 1)
        pivots = eliminate(aug, max_cols=self.n_cols)
        # Inconsistent iff some row reads 0 = 1: total row weight 1 with
        # the single bit in the augmented column — one vectorised
        # popcount pass instead of a per-row ``row_cols`` scan.
        weights = aug.row_weights()
        b_col = self.n_cols
        aug_bits = (
            aug._data[:, b_col >> 6] >> np.uint64(b_col & 63)
        ) & np.uint64(1)
        if bool(((weights == 1) & (aug_bits == 1)).any()):
            return None
        x = [0] * self.n_cols
        for r, j in enumerate(pivots):
            if aug.get(r, self.n_cols):
                x[j] = 1
        return x

    def transpose(self) -> "GF2Matrix":
        """The transposed matrix."""
        out = GF2Matrix(self.n_cols, self.n_rows)
        for i in range(self.n_rows):
            for j in self.row_cols(i):
                out.set(j, i, 1)
        return out

    def multiply(self, other: "GF2Matrix") -> "GF2Matrix":
        """Matrix product over GF(2).

        Row i of the result is the XOR of ``other``'s rows selected by the
        1-entries of row i — the same word-level trick M4RI uses, so the
        inner loop stays vectorised.
        """
        if self.n_cols != other.n_rows:
            raise ValueError("dimension mismatch")
        out = GF2Matrix(self.n_rows, other.n_cols)
        for i in range(self.n_rows):
            acc = np.zeros_like(out._data[0])
            for k in self.row_cols(i):
                acc ^= other._data[k]
            out._data[i] = acc
        return out

    def kernel_basis(self) -> List[List[int]]:
        """A basis of the right null space {x : A·x = 0}.

        Returned as dense 0/1 vectors of length ``n_cols``.
        """
        reduced = self.copy()
        pivots = eliminate(reduced)
        pivot_set = set(pivots)
        free_cols = [j for j in range(self.n_cols) if j not in pivot_set]
        pivot_row = {col: row for row, col in enumerate(pivots)}
        basis = []
        for free in free_cols:
            vec = [0] * self.n_cols
            vec[free] = 1
            # Back-substitute: each pivot column equals the sum of free
            # columns appearing in its row.
            for col, row in pivot_row.items():
                if reduced.get(row, free):
                    vec[col] = 1
            basis.append(vec)
        return basis

    def to_dense(self) -> "np.ndarray":
        """Dense uint8 0/1 array (for tests and display)."""
        out = np.zeros((self.n_rows, self.n_cols), dtype=np.uint8)
        for i in range(self.n_rows):
            for j in self.row_cols(i):
                out[i, j] = 1
        return out

    def __repr__(self) -> str:
        return "GF2Matrix({}x{})".format(self.n_rows, self.n_cols)


def rref_rows(
    rows: Sequence[Iterable[int]], n_cols: int
) -> Tuple[List[List[int]], List[int]]:
    """Convenience: RREF over sparse row input.

    Returns ``(reduced_rows, pivot_columns)`` where ``reduced_rows`` lists
    the non-zero rows of the reduced matrix as sorted column-index lists.
    """
    m = GF2Matrix.from_rows(rows, n_cols)
    pivots = eliminate(m)
    reduced = [m.row_cols(i) for i in range(m.n_rows)]
    return [r for r in reduced if r], pivots

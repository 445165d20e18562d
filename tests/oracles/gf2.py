"""The seed GF(2) eliminator, the oracle for the Four-Russians kernel."""

from typing import List, Optional

import numpy as np


def rref_gj(matrix, max_cols: Optional[int] = None) -> List[int]:
    """The seed column-at-a-time Gauss–Jordan RREF of a ``GF2Matrix``,
    in place; returns the pivot column list.

    One vectorised row-XOR sweep per pivot column.
    ``repro.gf2.elimination.eliminate`` must match it bit for bit: pivot
    list, row order and row content.
    """
    ncols = matrix.n_cols if max_cols is None else min(max_cols, matrix.n_cols)
    pivots: List[int] = []
    rank = 0
    data = matrix._data
    for j in range(ncols):
        if rank >= matrix.n_rows:
            break
        word, mask = j >> 6, np.uint64(1) << np.uint64(j & 63)
        col = data[:, word] & mask
        candidates = np.nonzero(col[rank:])[0]
        if candidates.size == 0:
            continue
        pivot = rank + int(candidates[0])
        if pivot != rank:
            data[[rank, pivot]] = data[[pivot, rank]]
            col = data[:, word] & mask
        hit = np.nonzero(col)[0]
        hit = hit[hit != rank]
        if hit.size:
            data[hit] ^= data[rank]
        pivots.append(j)
        rank += 1
    return pivots

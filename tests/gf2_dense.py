"""Dense 0/1 views of a GF2Matrix for tests, on the production row API."""

import numpy as np

from repro.gf2 import GF2Matrix


def from_dense(rows):
    a = np.asarray(rows, dtype=np.uint8) & 1
    return GF2Matrix.from_rows([np.flatnonzero(r) for r in a], a.shape[1])


def to_dense(m):
    a = np.zeros((m.n_rows, m.n_cols), dtype=np.uint8)
    for i in range(m.n_rows):
        a[i, m.row_cols(i)] = 1
    return a

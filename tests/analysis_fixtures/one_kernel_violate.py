"""Fixture: ONE-KERNEL violations — primitive loops, hand-rolled sweep.

Never imported; the self-tests analyze this file as text only.
"""


def swap_sweep(m, rows):
    for r in rows:
        m.swap_rows(r, 0)


def primitive_sweep(m, rows):
    for r in rows:
        m.xor_row_into(r, 0)


def hand_rolled(data, n_rows, n_cols, m):
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if m.get(r, col) == 1:
                pivot = r
                break
        if pivot is None:
            continue
        data[rank], data[pivot] = data[pivot], data[rank]
        for r in range(n_rows):
            if r != rank and m.get(r, col):
                data[r] ^= data[rank]
        rank += 1
    return rank

"""Fixture: ONE-KERNEL suppressed — a justified per-row primitive loop."""


def fold_rows(m, rows):
    for r in rows:
        m.xor_row_into(r, 0)  # repro: allow[ONE-KERNEL] folds a few rows into one accumulator row; no elimination happens
    return m

"""Fixture: MASK-PATH violations — per-cell producer loops."""


def build(matrix, cells):
    for i, j in cells:
        matrix.set(i, j, 1)
    return matrix


def build_rows(matrix, rows):
    i = 0
    while i < len(rows):
        matrix.set(i, rows[i], 1)
        i += 1
    return matrix

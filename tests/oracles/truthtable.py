"""The seed per-row truth table, the oracle for ``truth_table_masks``.

One Python loop per assignment, evaluating the ``Poly`` through
``Poly.evaluate``; the mask-native batch evaluator
``repro.minimize.truthtable.truth_table_masks`` must return the same
on-set for the same polynomial and variable order.
"""

from typing import List, Sequence

from repro.anf.polynomial import Poly


def truth_table(poly: Poly, variables: Sequence[int]) -> List[int]:
    """On-set minterm indices of ``poly`` over the given variable order.

    Bit ``i`` of a minterm index is the value of ``variables[i]``.  The
    returned minterms are exactly the assignments where the polynomial
    evaluates to 1 — i.e. the assignments *forbidden* by the equation
    ``poly = 0``.

    Python loop per assignment; kept as the oracle twin of
    :func:`truth_table_masks` (the ``bench_anf_to_cnf`` baseline leg).
    """
    n = len(variables)
    on = []
    assignment = {}
    for m in range(1 << n):
        for i, v in enumerate(variables):
            assignment[v] = (m >> i) & 1
        if poly.evaluate(assignment):
            on.append(m)
    return on

"""Truth tables (Karnaugh maps) of small Boolean polynomials.

The ANF→CNF Karnaugh path (paper section III-C approach 1) evaluates the
polynomial over all assignments of its support and minimises the resulting
on-set.  With the paper's Karnaugh parameter K = 8 this is at most 256
evaluations.

The production path is :func:`truth_table_masks`: the chunk's terms
arrive as support-compressed local bitmasks (see
:func:`repro.anf.monomial.compress_mask`) and all ``2**K`` assignments
are evaluated in one numpy broadcast — a monomial is 1 exactly when its
mask is a subset of the assignment index, so the whole table is one
``(assignments x terms)`` subset test plus a parity reduction.  The
seed per-row loop is the test oracle ``tests/oracles/truthtable.py``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

#: Widest support the batch evaluator accepts.  ``2**n`` table rows stop
#: being "small" long before this; the bound just keeps the uint64
#: assignment indices exact.
MAX_BATCH_VARS = 20


def truth_table_masks(
    local_masks: Sequence[int], n_vars: int, rhs: int = 0
) -> List[int]:
    """On-set of ``XOR of AND-terms + rhs`` over ``n_vars`` local variables.

    ``local_masks[t]`` is the bitmask of term ``t`` over the local
    variables ``0..n_vars-1`` (bit ``i`` of a minterm index is the value
    of local variable ``i``).  All ``2**n_vars`` assignments are evaluated
    at once: term ``t`` holds on assignment ``a`` iff
    ``a & mask_t == mask_t``, and the polynomial's value is the GF(2)
    parity of the holding terms XOR ``rhs``.  Returns the minterm
    indices where the value is 1, ascending.
    """
    if not 0 <= n_vars <= MAX_BATCH_VARS:
        raise ValueError(
            "batch truth table supports 0..{} variables, got {}".format(
                MAX_BATCH_VARS, n_vars
            )
        )
    size = 1 << n_vars
    if not local_masks:
        return list(range(size)) if rhs & 1 else []
    assignments = np.arange(size, dtype=np.uint64)[:, None]
    terms = np.asarray(list(local_masks), dtype=np.uint64)[None, :]
    hits = (assignments & terms) == terms
    parity = np.bitwise_xor.reduce(hits, axis=1)
    if rhs & 1:
        parity = ~parity
    return np.flatnonzero(parity).tolist()



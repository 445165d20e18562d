"""Recovering XOR constraints hidden in CNF clauses.

CryptoMiniSat detects XOR constraints that were Tseitin-encoded into CNF
(an l-variable XOR appears as the ``2**(l-1)`` clauses forbidding the
wrong-parity assignments, the encoding :func:`repro.sat.dimacs.parity_clauses`
emits) and reasons on them natively.  This module
reproduces that detection for two consumers:

* the CNF→ANF conversion (:func:`repro.core.cnf_to_anf.cnf_to_anf`),
  which turns each recovered XOR into one linear polynomial and drops
  its clauses, so Bosphorus's algebra sees parities as linear rows;
* the ``cms`` personality's formula load
  (:meth:`repro.portfolio.backends.CdclChain._load`), which attaches the
  XORs to its Gauss–Jordan engine and keeps the clauses, so it keeps its
  edge on CNF inputs the same way the real tool does in the paper's
  SAT-2017 block.

Detection: group clauses by variable support; a support of size
l <= :data:`MAX_WIDTH` carries an XOR of right-hand side r iff all
``2**(l-1)`` clauses with sign-parity ``1 - r`` are present.  Every copy
of such a clause counts as used, so dropping the used clauses leaves no
repeated shard behind.  Subsumed partial groups are left untouched.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from .dimacs import CnfFormula

#: Widest XOR support examined (its group has ``2**(MAX_WIDTH - 1)``
#: clauses, doubling per variable).
MAX_WIDTH = 6


def recover_xors(
    clauses: Sequence[Sequence[int]],
) -> Tuple[List[Tuple[List[int], int]], List[int]]:
    """Find full XOR constraints among the clauses.

    Returns ``(xors, used_clause_indices)`` where each xor is
    ``(variables, rhs)``; the indices cover every copy of each XOR's
    clauses.
    """
    groups: Dict[FrozenSet[int], List[int]] = {}
    for idx, clause in enumerate(clauses):
        if not 2 <= len(clause) <= MAX_WIDTH:
            continue
        support = frozenset([l >> 1 for l in clause])
        if len(support) == len(clause):  # else not an XOR shard
            groups.setdefault(support, []).append(idx)

    xors: List[Tuple[List[int], int]] = []
    used: List[int] = []
    for support, idxs in groups.items():
        width = len(support)
        need = 1 << (width - 1)
        if len(idxs) < need:
            continue
        variables = sorted(support)
        var_pos = {v: i for i, v in enumerate(variables)}
        # Bucket the clauses by their sign-parity.
        by_parity: Dict[int, Set[int]] = {0: set(), 1: set()}
        idxs_by_pattern: Dict[int, List[int]] = {}
        for idx in idxs:
            pattern = 0
            for l in clauses[idx]:
                if l & 1:
                    pattern |= 1 << var_pos[l >> 1]
            parity = pattern.bit_count() & 1
            by_parity[parity].add(pattern)
            idxs_by_pattern.setdefault(pattern, []).append(idx)
        for parity in (0, 1):
            if len(by_parity[parity]) == need:
                # Clauses with sign-parity p forbid assignments with
                # value-parity p, so the surviving assignments have
                # parity 1 - p: the XOR's right-hand side.
                rhs = parity ^ 1
                xors.append((variables, rhs))
                for pat in by_parity[parity]:
                    used.extend(idxs_by_pattern[pat])
                break
    return xors, sorted(set(used))


def formula_with_recovered_xors(
    formula: CnfFormula, drop_used: bool = False
) -> CnfFormula:
    """The formula with detected XORs attached natively: a new formula
    sharing the input's clause lists, or the input itself when none is
    detected.

    With ``drop_used`` the clause shards that formed each recovered XOR
    are removed (they are implied by the native constraint).
    """
    xors, used = recover_xors(formula.clauses)
    if not xors:
        return formula
    out = CnfFormula(formula.n_vars)
    used_set = set(used) if drop_used else set()
    out.clauses = [
        clause for idx, clause in enumerate(formula.clauses)
        if idx not in used_set
    ]
    for variables, rhs in formula.xors:
        out.add_xor(list(variables), rhs)
    for variables, rhs in xors:
        out.add_xor(variables, rhs)
    return out

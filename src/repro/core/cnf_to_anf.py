"""CNF → ANF conversion (paper section III-D).

Each CNF variable maps to the ANF variable of the same index, and each
clause becomes the polynomial "product of negated literals = 0" (the
clause is violated exactly when every literal is false, and the product
detects that point).  A clause with ``n`` positive literals expands into
``2**n`` monomials, so clauses are first *cut* — split with auxiliary
variables, à la k-SAT → 3-SAT — until each piece has at most L' positive
literals (the clause-cutting length).

Native XOR constraints (CryptoMiniSat-style ``x`` lines) translate
directly into linear polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..anf import monomial as mono
from ..anf.polynomial import Poly, PolyBuilder
from ..anf.ring import Ring
from ..sat.dimacs import CnfFormula
from ..sat.types import lit_sign, lit_var, mk_lit
from .config import Config


@dataclass
class CnfToAnfResult:
    """ANF equivalent of a CNF formula.

    ANF variable ``i`` is CNF variable ``i`` for ``i < n_cnf_vars``;
    variables beyond that are clause-cutting auxiliaries.
    """

    ring: Ring
    polynomials: List[Poly]
    n_cnf_vars: int
    cut_vars: List[int] = field(default_factory=list)


def clause_to_poly(lits: Sequence[int]) -> Poly:
    """Product of negated literals.

    ``¬x1 ∨ x2`` becomes ``x1 * (x2 + 1) = x1x2 + x1`` — the polynomial is
    1 exactly on the clause-violating assignment(s).

    The negated literals contribute one base monomial; each positive
    literal contributes a ``(v + 1)`` factor, i.e. a subset expansion.
    Mask-native: the base monomial is assembled as one bitmask OR and the
    expansion runs on masks (:func:`repro.anf.monomial.expand_negated_mask`),
    so the CNF→ANF direction rides the packed path like everything else.
    The whole product is accumulated in one :class:`PolyBuilder` instead
    of a chain of intermediate ``Poly`` allocations.
    """
    base_mask = 0
    expand_mask_vars: List[int] = []
    for l in lits:
        v = lit_var(l)
        if v < 0:
            raise ValueError("negative variable index: {}".format(v))
        if lit_sign(l):  # negated literal: false when the var is 1
            base_mask |= 1 << v
        else:  # positive literal: false when the var is 0
            expand_mask_vars.append(v)
    masks = mono.expand_negated_mask(base_mask, expand_mask_vars)
    if not masks:
        return Poly.zero()  # v * (v + 1) = 0: tautological clause
    builder = PolyBuilder()
    builder.add_monomials(mono.from_mask(mk) for mk in masks)
    return builder.build()


def _count_positive(lits: Sequence[int]) -> int:
    return sum(1 for l in lits if not lit_sign(l))


def cnf_to_anf(
    formula: CnfFormula, config: Optional[Config] = None
) -> CnfToAnfResult:
    """Convert a CNF formula to an equisatisfiable ANF system."""
    config = config or Config()
    cut_limit = max(config.clause_cut_len, 1)
    ring = Ring(formula.n_vars)
    polys: List[Poly] = []
    cut_vars: List[int] = []

    def emit(lits: List[int]) -> None:
        if not lits:
            polys.append(Poly.one())
            return
        if _count_positive(lits) <= cut_limit:
            p = clause_to_poly(lits)
            if p.is_one():
                polys.append(Poly.one())
            elif not p.is_zero():
                polys.append(p)
            return
        # Split: keep enough literals to reach L'-1 positives, bridge with
        # a fresh auxiliary variable (positive in the head, negated ahead).
        head: List[int] = []
        positives = 0
        i = 0
        while i < len(lits) and positives < cut_limit - 1:
            l = lits[i]
            head.append(l)
            if not lit_sign(l):
                positives += 1
            i += 1
        tail = lits[i:]
        aux = ring.new_variable()
        cut_vars.append(aux)
        emit(head + [mk_lit(aux)])
        emit([mk_lit(aux, True)] + tail)

    for clause in formula.clauses:
        emit(list(clause))
    for variables, rhs in formula.xors:
        for v in variables:
            ring.ensure(v)
        polys.append(Poly([(v,) for v in variables]).add_constant(rhs))

    return CnfToAnfResult(
        ring=ring, polynomials=polys, n_cnf_vars=formula.n_vars, cut_vars=cut_vars
    )

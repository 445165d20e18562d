"""Buchberger's algorithm over the Boolean ring (paper section V).

The paper discusses plugging Gröbner-basis computation into the workflow
(as in Condrat–Kalla) and reports that the off-the-shelf M4GB engine runs
out of memory on all instances.  This module provides the reproduction's
Gröbner engine: a budgeted Buchberger over the Boolean quotient ring
GF(2)[x]/(x²+x), in degree-lexicographic order.

Because our polynomial arithmetic works in the quotient ring directly
(monomials are variable *sets*, held as int masks), the field equations
``x² + x`` are implicit.  Reduction therefore guards against the
Boolean-ring quirk where multiplying a reducer up can cancel its own
leading term.  Divisibility is a mask subset test, the lcm a mask OR,
and the leading monomial the minimum under
:func:`~repro.anf.monomial.deglex_desc_key`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..anf import monomial as mono
from ..anf.polynomial import Poly


@dataclass
class GroebnerResult:
    """A (possibly partial) Gröbner basis plus learnt facts."""

    basis: List[Poly] = field(default_factory=list)
    facts: List[Poly] = field(default_factory=list)
    pairs_processed: int = 0
    complete: bool = False
    contradiction: bool = False


def normal_form(p: Poly, basis: Sequence[Poly]) -> Poly:
    """Reduce ``p`` modulo the basis (leading terms, then tails).

    A reducer is only applied when the lifted product actually cancels the
    current leading monomial (multiplying by a monomial in the Boolean
    ring can collapse terms); otherwise the leading monomial is moved to
    the remainder, which keeps the reduction terminating.
    """
    remainder = Poly.zero()
    work = p
    while not work.is_zero():
        lm = _lead(work)
        reduced = False
        for g in basis:
            if g.is_zero():
                continue
            glm = _lead(g)
            if glm & lm != glm:
                continue  # glm does not divide lm
            lifted = g.mul_monomial(lm & ~glm)
            if lifted.is_zero() or _lead(lifted) != lm:
                continue  # Boolean collapse: this reducer cannot fire
            work = work + lifted
            reduced = True
            break
        if not reduced:
            remainder = remainder + Poly.from_monomial(lm)
            work = work + Poly.from_monomial(lm)
    return remainder


def _lead(p: Poly) -> int:
    """The leading (deglex-largest) monomial mask of a non-zero ``p``."""
    return min(p, key=mono.deglex_desc_key)


def s_polynomial(f: Poly, g: Poly) -> Poly:
    """The S-polynomial of f and g under deglex order."""
    lf = _lead(f)
    lg = _lead(g)
    return f.mul_monomial(lg & ~lf) + g.mul_monomial(lf & ~lg)


def buchberger(
    polynomials: Sequence[Poly],
    max_pairs: int = 2000,
    max_basis: int = 500,
) -> GroebnerResult:
    """Budgeted Buchberger.  Facts are linear/monomial basis elements.

    The budget reproduces the paper's experience with M4GB: on large
    cipher systems the pair queue explodes and the computation is cut off
    (``complete = False``).
    """
    result = GroebnerResult()
    basis: List[Poly] = []
    for p in polynomials:
        if p.is_one():
            result.contradiction = True
            result.facts = [Poly.one()]
            result.complete = True
            return result
        if not p.is_zero() and p not in basis:
            basis.append(p)

    pairs: List[Tuple[int, int]] = [
        (i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))
    ]
    while pairs:
        if result.pairs_processed >= max_pairs or len(basis) >= max_basis:
            result.basis = basis
            result.facts = _facts_from(basis)
            result.complete = False
            return result
        # Process the pair with the smallest lcm first (normal strategy);
        # the sort is stable, so equal lcms keep their queue order.
        pairs.sort(
            key=lambda ij: mono.deglex_desc_key(
                _lead(basis[ij[0]]) | _lead(basis[ij[1]])
            ),
            reverse=True,
        )
        i, j = pairs.pop(0)
        result.pairs_processed += 1
        f, g = basis[i], basis[j]
        # Product criterion: coprime leading monomials reduce to zero.
        if not _lead(f) & _lead(g):
            continue
        s = s_polynomial(f, g)
        r = normal_form(s, basis)
        if r.is_zero():
            continue
        if r.is_one():
            result.contradiction = True
            result.facts = [Poly.one()]
            result.basis = basis
            result.complete = True
            return result
        basis.append(r)
        new_idx = len(basis) - 1
        pairs.extend((k, new_idx) for k in range(new_idx))

    result.basis = _interreduce(basis)
    result.facts = _facts_from(result.basis)
    result.complete = True
    return result


def _facts_from(basis: Sequence[Poly]) -> List[Poly]:
    facts = []
    for p in basis:
        if p.is_zero():
            continue
        if p.is_linear() or p.as_monomial_assignment() is not None:
            facts.append(p)
    return facts


def _interreduce(basis: Sequence[Poly]) -> List[Poly]:
    """Reduce each element against the others; drop zeros."""
    out = [p for p in basis if not p.is_zero()]
    changed = True
    while changed:
        changed = False
        for i in range(len(out)):
            others = out[:i] + out[i + 1:]
            r = normal_form(out[i], others)
            if r != out[i]:
                changed = True
                if r.is_zero():
                    out.pop(i)
                else:
                    out[i] = r
                break
    return out

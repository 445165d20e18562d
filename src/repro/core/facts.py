"""Learnt-fact bookkeeping.

The paper's loop learns two shapes of fact — linear equations and
``monomial ⊕ 1`` polynomials — from three sources (XL, ElimLin, the SAT
solver).  The :class:`FactStore` records each fact once with its source so
experiments can report who learnt what.
"""

from __future__ import annotations

from typing import Dict, List

from ..anf.polynomial import Poly

#: Source tags.
SOURCE_INPUT = "input"
SOURCE_PROPAGATION = "propagation"
SOURCE_XL = "xl"
SOURCE_ELIMLIN = "elimlin"
SOURCE_SAT = "sat"
SOURCE_GROEBNER = "groebner"
SOURCE_PROBING = "probing"


class FactStore:
    """Insertion-ordered set of learnt facts with provenance."""

    def __init__(self):
        # Fact -> source, in learning order.
        self._facts: Dict[Poly, str] = {}

    def add(self, poly: Poly, source: str) -> bool:
        """Record a fact.  Returns True if it was new."""
        if poly.is_zero() or poly in self._facts:
            return False
        self._facts[poly] = source
        return True

    def __len__(self) -> int:
        return len(self._facts)

    def __contains__(self, poly: Poly) -> bool:
        return poly in self._facts

    def __iter__(self):
        return iter(self._facts.items())

    def polynomials(self) -> List[Poly]:
        """All fact polynomials, in learning order."""
        return list(self._facts)

    def summary(self) -> Dict[str, int]:
        """Fact counts per source (for experiment reporting)."""
        out: Dict[str, int] = {}
        for s in self._facts.values():
            out[s] = out.get(s, 0) + 1
        return out

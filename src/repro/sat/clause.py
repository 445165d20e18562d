"""Clause objects for the CDCL solver."""

from __future__ import annotations

from typing import List

from .types import lit_to_dimacs


class Clause:
    """A disjunction of literals.

    The first two literals are the watched ones; the solver maintains the
    invariant that they are the best candidates to watch after every
    backtrack.  ``learnt`` clauses carry an activity used by the clause
    database reduction policy.
    """

    __slots__ = ("lits", "learnt", "activity")

    def __init__(self, lits: List[int], learnt: bool = False):
        self.lits = lits
        self.learnt = learnt
        self.activity = 0.0

    def __len__(self) -> int:
        return len(self.lits)

    def __iter__(self):
        return iter(self.lits)

    def __repr__(self) -> str:
        body = " ".join(str(lit_to_dimacs(l)) for l in self.lits)
        tag = "L" if self.learnt else "C"
        return "{}({})".format(tag, body)

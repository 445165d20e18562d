"""DRAT proof logging and RUP checking.

The paper's pipeline trusts the SAT solver's UNSAT verdicts (they become
the learnt fact ``1 = 0``).  Modern solvers make that trust checkable by
emitting DRAT proofs; this module adds the same capability to our CDCL
core:

* :class:`DratProof` — collects learnt-clause additions and deletions
  (attach via ``solver.proof = DratProof()`` before solving), and
* :class:`check_rup` — a forward RUP (reverse unit propagation) checker:
  each added clause must be confirmed by propagating its negation to a
  conflict over the accumulated formula, and the proof must end with the
  empty clause.

Restriction: proof logging covers pure-CNF solving.  XOR-engine
implications are not clause-representable, so attaching both is rejected.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, TextIO, Tuple

from .types import lit_neg, lit_to_dimacs


class DratProof:
    """An in-memory DRAT proof: ('a'dd | 'd'elete, clause) steps."""

    def __init__(self):
        self.steps: List[Tuple[str, Tuple[int, ...]]] = []

    def add(self, lits: Iterable[int]) -> None:
        """Record a learnt-clause addition."""
        self.steps.append(("a", tuple(lits)))

    def delete(self, lits: Iterable[int]) -> None:
        """Record a clause deletion."""
        self.steps.append(("d", tuple(lits)))

    def add_empty(self) -> None:
        """Record the final empty clause (the refutation)."""
        self.steps.append(("a", ()))

    def write(self, f: TextIO) -> None:
        """Serialise in the standard textual DRAT format."""
        for op, clause in self.steps:
            prefix = "d " if op == "d" else ""
            f.write(prefix + " ".join(str(lit_to_dimacs(l)) for l in clause))
            f.write(" 0\n" if clause else "0\n")

    def __len__(self) -> int:
        return len(self.steps)


class _UnitPropagator:
    """A small occurrence-list unit propagator for proof checking."""

    def __init__(self, n_vars: int):
        self.n_vars = n_vars
        self.clauses: List[Optional[Tuple[int, ...]]] = []
        self.occ: Dict[int, Set[int]] = {}
        self._index: Dict[Tuple[int, ...], List[int]] = {}

    def add_clause(self, lits: Sequence[int]) -> None:
        key = tuple(sorted(lits))
        cid = len(self.clauses)
        self.clauses.append(key)
        self._index.setdefault(key, []).append(cid)
        for l in key:
            self.occ.setdefault(l, set()).add(cid)

    def delete_clause(self, lits: Sequence[int]) -> bool:
        key = tuple(sorted(lits))
        ids = self._index.get(key)
        if not ids:
            return False
        cid = ids.pop()
        self.clauses[cid] = None
        for l in key:
            self.occ.get(l, set()).discard(cid)
        return True

    def propagates_to_conflict(self, assumed_false: Sequence[int]) -> bool:
        """True if asserting all ``assumed_false`` literals false leads UP
        to a conflict (the RUP condition)."""
        value: Dict[int, int] = {}  # var -> 0/1

        def lit_value(l: int) -> Optional[int]:
            v = value.get(l >> 1)
            if v is None:
                return None
            return v ^ (l & 1)

        queue: List[int] = []
        for l in assumed_false:
            lv = lit_value(l)
            if lv == 1:
                return True  # immediate inconsistency among assumptions
            if lv is None:
                value[l >> 1] = (l & 1)  # makes literal l false
                queue.append(l)
        # Seed with the formula's unit clauses (they hold unconditionally).
        for clause in self.clauses:
            if clause is None or len(clause) != 1:
                continue
            u = clause[0]
            lv = lit_value(u)
            if lv == 0:
                return True
            if lv is None:
                value[u >> 1] = 1 ^ (u & 1)
                queue.append(lit_neg(u))
        head = 0
        while head < len(queue):
            falsified = queue[head]
            head += 1
            for cid in list(self.occ.get(falsified, ())):
                clause = self.clauses[cid]
                if clause is None:
                    continue
                unassigned = None
                satisfied = False
                for l in clause:
                    lv = lit_value(l)
                    if lv == 1:
                        satisfied = True
                        break
                    if lv is None:
                        if unassigned is not None:
                            unassigned = -2  # two or more free literals
                            break
                        unassigned = l
                if satisfied or unassigned == -2:
                    continue
                if unassigned is None:
                    return True  # conflict: clause fully falsified
                # Unit: assert `unassigned` true; its negation is falsified.
                value[unassigned >> 1] = 1 ^ (unassigned & 1)
                queue.append(lit_neg(unassigned))
        return False


def check_rup(  # repro: allow[DEAD-API] only tests call it until ROADMAP item 2 wires DRAT into UNSAT verdicts or deletes it
    n_vars: int,
    clauses: Sequence[Sequence[int]],
    proof: DratProof,
) -> bool:
    """Forward-check a DRAT/RUP proof against the original formula.

    Every addition must be RUP with respect to the clauses present at
    that point, and the final addition must be the empty clause.
    """
    engine = _UnitPropagator(n_vars)
    for clause in clauses:
        engine.add_clause(clause)
    saw_empty = False
    for op, clause in proof.steps:
        if op == "d":
            engine.delete_clause(clause)
            continue
        # RUP: negate the clause and propagate.
        if not engine.propagates_to_conflict(list(clause)):
            return False
        if not clause:
            saw_empty = True
            break
        engine.add_clause(clause)
    return saw_empty

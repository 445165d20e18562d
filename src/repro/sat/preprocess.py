"""SatELite-style CNF preprocessing.

Lingeling's edge over plain MiniSat comes largely from inprocessing:
subsumption, self-subsuming resolution (strengthening) and bounded
variable elimination (BVE).  This module reproduces the classic
Eén–Biere 2005 preprocessor so our "lingeling personality" has the same
character.  Model reconstruction for eliminated variables is supported so
satisfying assignments can be reported on the original variables.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from .types import FALSE, TRUE, UNDEF, lit_neg

#: Subsumption + elimination rounds before :meth:`Preprocessor.run` stops.
MAX_ROUNDS = 3
#: Variable elimination is refused when a resolvent would be longer.
MAX_RESOLVENT = 20


class PreprocessResult:
    """Outcome of preprocessing.

    Attributes:
        status: ``False`` if the formula was proven UNSAT, else ``True``.
        clauses: the simplified clause list (internal literals).
        n_vars: variable count (unchanged; eliminated vars just vanish
            from clauses).

    Model reconstruction reads the preprocessor's own elimination stack
    (:meth:`Preprocessor.extend_model`).
    """

    def __init__(self, status, clauses, n_vars):
        self.status = status
        self.clauses = clauses
        self.n_vars = n_vars


def _signature(clause: Tuple[int, ...]) -> int:
    sig = 0
    for l in clause:
        sig |= 1 << ((l >> 1) & 63)
    return sig


class Preprocessor:
    """Subsumption + strengthening + bounded variable elimination."""

    def __init__(self, n_vars: int, clauses: Sequence[Sequence[int]]):
        self.n_vars = n_vars
        self._clauses: List[Optional[Tuple[int, ...]]] = []
        self._sigs: List[int] = []
        self._occ: Dict[int, Set[int]] = {}
        self._assign: List[int] = [UNDEF] * n_vars
        self._units: List[int] = []
        self._eliminated: List[Tuple[int, List[Tuple[int, ...]]]] = []
        self._touched: Set[int] = set()
        self._contradiction = False
        for c in clauses:
            self._add(tuple(sorted(set(c))))

    # -- clause store -------------------------------------------------------

    def _add(self, clause: Tuple[int, ...]) -> None:
        if self._contradiction:
            return
        lits = []
        for l in clause:
            if lit_neg(l) in clause:
                return  # tautology
            v = l >> 1
            val = self._assign[v]
            if val != UNDEF:
                if val ^ (l & 1) == TRUE:
                    return  # satisfied
                continue  # false literal: drop
            lits.append(l)
        lits = tuple(sorted(set(lits)))
        if not lits:
            self._contradiction = True
            return
        if len(lits) == 1:
            self._enqueue_unit(lits[0])
            return
        cid = len(self._clauses)
        self._clauses.append(lits)
        self._sigs.append(_signature(lits))
        for l in lits:
            self._occ.setdefault(l, set()).add(cid)
            self._touched.add(l >> 1)

    def _remove(self, cid: int) -> None:
        clause = self._clauses[cid]
        if clause is None:
            return
        for l in clause:
            self._occ.get(l, set()).discard(cid)
            self._touched.add(l >> 1)
        self._clauses[cid] = None

    def _enqueue_unit(self, lit: int) -> None:
        v = lit >> 1
        val = self._assign[v]
        want = TRUE ^ (lit & 1)
        if val != UNDEF:
            if val != want:
                self._contradiction = True
            return
        self._assign[v] = want
        self._units.append(lit)

    # -- simplification passes -----------------------------------------------

    def _propagate_units(self) -> None:
        head = 0
        while head < len(self._units) and not self._contradiction:
            lit = self._units[head]
            head += 1
            # Satisfied clauses disappear; clauses with the negation shrink.
            for cid in list(self._occ.get(lit, ())):
                self._remove(cid)
            for cid in list(self._occ.get(lit_neg(lit), ())):
                clause = self._clauses[cid]
                if clause is None:
                    continue
                self._remove(cid)
                self._add(tuple(l for l in clause if l != lit_neg(lit)))

    def _subsumes(self, small: Tuple[int, ...], sid: int, big: Tuple[int, ...], bid: int) -> bool:
        if len(small) > len(big):
            return False
        if self._sigs[sid] & ~self._sigs[bid]:
            return False
        return set(small) <= set(big)

    def _backward_subsume(self, cid: int) -> None:
        clause = self._clauses[cid]
        if clause is None:
            return
        pivot = min(clause, key=lambda l: len(self._occ.get(l, ())))
        for other in list(self._occ.get(pivot, ())):
            if other == cid:
                continue
            big = self._clauses[other]
            if big is not None and self._subsumes(clause, cid, big, other):
                self._remove(other)

    def _strengthen(self, cid: int) -> bool:
        """Self-subsuming resolution: drop literals justified by others.

        Returns True if any clause changed.
        """
        clause = self._clauses[cid]
        if clause is None:
            return False
        changed = False
        for l in clause:
            flipped = tuple(sorted((lit_neg(l),) + tuple(q for q in clause if q != l)))
            pivot = min(flipped, key=lambda q: len(self._occ.get(q, ())))
            for other in list(self._occ.get(pivot, ())):
                big = self._clauses[other]
                if big is None or other == cid:
                    continue
                if set(flipped) <= set(big):
                    # big can lose lit_neg(l).
                    self._remove(other)
                    self._add(tuple(q for q in big if q != lit_neg(l)))
                    changed = True
        return changed

    def _subsumption_round(self) -> None:
        for cid in range(len(self._clauses)):
            if self._clauses[cid] is not None:
                self._backward_subsume(cid)
        for cid in range(len(self._clauses)):
            if self._clauses[cid] is not None:
                self._strengthen(cid)

    def _try_eliminate(self, var: int) -> bool:
        pos = [c for c in self._occ.get(var << 1, ()) if self._clauses[c] is not None]
        neg = [c for c in self._occ.get((var << 1) | 1, ()) if self._clauses[c] is not None]
        if not pos and not neg:
            return False
        if len(pos) * len(neg) > 64:
            return False
        before = len(pos) + len(neg)
        resolvents: List[Tuple[int, ...]] = []
        p_lit, n_lit = var << 1, (var << 1) | 1
        for pc in pos:
            a = self._clauses[pc]
            for nc in neg:
                b = self._clauses[nc]
                merged = set(a) | set(b)
                merged.discard(p_lit)
                merged.discard(n_lit)
                if any(lit_neg(l) in merged for l in merged):
                    continue  # tautological resolvent
                if len(merged) > MAX_RESOLVENT:
                    return False
                resolvents.append(tuple(sorted(merged)))
        if len(resolvents) > before:
            return False
        saved = [self._clauses[c] for c in pos + neg]
        for c in pos + neg:
            self._remove(c)
        self._eliminated.append((var, [s for s in saved if s is not None]))
        self._assign[var] = UNDEF  # stays unassigned; model extension sets it
        for r in resolvents:
            self._add(r)
        return True

    def run(self) -> PreprocessResult:
        """Run the preprocessing pipeline and return the simplified CNF."""
        self._propagate_units()
        for _ in range(MAX_ROUNDS):
            if self._contradiction:
                break
            self._subsumption_round()
            self._propagate_units()
            changed = False
            if not self._contradiction:
                for var in range(self.n_vars):
                    if self._assign[var] == UNDEF and self._try_eliminate(var):
                        changed = True
                self._propagate_units()
            if not changed:
                break
        if self._contradiction:
            return PreprocessResult(False, [], self.n_vars)
        clauses = [list(c) for c in self._clauses if c is not None]
        for lit in self._units:
            clauses.append([lit])
        return PreprocessResult(True, clauses, self.n_vars)

    # -- model reconstruction -------------------------------------------------

    def extend_model(self, model: List[int]) -> List[int]:
        """Fill in eliminated variables so every original clause holds.

        ``model`` is a TRUE/FALSE/UNDEF list over all variables; the
        returned list assigns every eliminated variable the value that
        satisfies its saved clauses (processed in reverse elimination
        order, as in SatELite).
        """
        out = list(model)
        for v in range(len(out)):
            if out[v] == UNDEF:
                out[v] = FALSE
        for var, saved in reversed(self._eliminated):
            # Find the polarity of var that satisfies all saved clauses.
            need_true = False
            need_false = False
            for clause in saved:
                satisfied = False
                via = None
                for l in clause:
                    lv = l >> 1
                    if lv == var:
                        via = l
                        continue
                    if out[lv] ^ (l & 1) == TRUE:
                        satisfied = True
                        break
                if satisfied or via is None:
                    continue
                if via & 1:
                    need_false = True
                else:
                    need_true = True
            out[var] = TRUE if need_true else FALSE
            if need_true and need_false:
                # Should not happen for correct BVE; fail loudly in debug.
                raise AssertionError("model extension conflict on var %d" % var)
        return out

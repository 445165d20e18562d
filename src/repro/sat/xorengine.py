"""Native XOR reasoning for the CDCL solver.

CryptoMiniSat5 — the solver Bosphorus modifies — natively performs
Gauss–Jordan elimination on XOR constraints.  This module reproduces that
capability for our CDCL core:

* at attach time the XOR set is Gauss–Jordan eliminated over GF(2)
  (deriving units, detecting 1 = 0, and shrinking the constraints), and
* during search the surviving XORs propagate with a two-variable watch
  scheme, supplying proper reason clauses so conflict analysis works
  through XOR implications.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..gf2.elimination import eliminate
from ..gf2.matrix import GF2Matrix
from .clause import Clause
from .types import TRUE, UNDEF, mk_lit


class XorClause:
    """An XOR constraint ``v1 ⊕ ... ⊕ vk = rhs`` over variables."""

    __slots__ = ("vars", "rhs", "watch_a", "watch_b")

    def __init__(self, variables: Sequence[int], rhs: int):
        self.vars = sorted(set(variables))
        self.rhs = rhs & 1
        self.watch_a = 0
        self.watch_b = min(1, len(self.vars) - 1)

    def __repr__(self) -> str:
        return "Xor({} = {})".format(self.vars, self.rhs)


class XorEngine:
    """XOR constraint store + propagator, bound to one :class:`Solver`."""

    def __init__(self):
        self.xors: List[XorClause] = []
        self.solver = None
        self.watches: Dict[int, List[XorClause]] = {}
        self.xhead = 0

    def add_xor(self, variables: Sequence[int], rhs: int) -> None:
        """Queue an XOR constraint; call before :meth:`bind`."""
        vs = []
        seen = set()
        parity = rhs & 1
        for v in variables:
            if v in seen:
                seen.discard(v)
            else:
                seen.add(v)
        vs = sorted(seen)
        self.xors.append(XorClause(vs, parity))

    def bind(self, solver) -> None:
        """Attach to a solver: run GJE, enqueue units, set up watches."""
        self.solver = solver
        for x in self.xors:
            for v in x.vars:
                solver.ensure_vars(v + 1)
        self._gaussian_eliminate()
        self.watches = {}
        for x in self.xors:
            if len(x.vars) >= 2:
                x.watch_a, x.watch_b = 0, 1
                self.watches.setdefault(x.vars[0], []).append(x)
                self.watches.setdefault(x.vars[1], []).append(x)
        self.xhead = 0

    def _gaussian_eliminate(self) -> None:
        """Level-0 Gauss–Jordan over the XOR set (CMS-style preprocessing)."""
        solver = self.solver
        if not self.xors:
            return
        var_list = sorted({v for x in self.xors for v in x.vars})
        col_of = {v: i for i, v in enumerate(var_list)}
        # One row per XOR: its columns, plus the last (rhs) column if set.
        m = GF2Matrix.from_rows(
            [
                [col_of[v] for v in x.vars] + ([len(var_list)] if x.rhs else [])
                for x in self.xors
            ],
            len(var_list) + 1,
        )
        eliminate(m, max_cols=len(var_list))
        new_xors: List[XorClause] = []
        for i in range(m.n_rows):
            cols = m.row_cols(i)
            if not cols:
                continue
            rhs = 0
            if cols[-1] == len(var_list):
                rhs = 1
                cols = cols[:-1]
            if not cols:
                solver.ok = False  # 0 = 1
                return
            vs = [var_list[c] for c in cols]
            if len(vs) == 1:
                lit = mk_lit(vs[0], negated=(rhs == 0))
                if not solver.enqueue(lit, None):
                    solver.ok = False
                    return
            else:
                new_xors.append(XorClause(vs, rhs))
        self.xors = new_xors

    # -- search-time propagation ------------------------------------------

    def on_backtrack(self) -> None:
        """Rewind the engine's trail pointer after solver backtracking."""
        self.xhead = min(self.xhead, len(self.solver.trail))

    def propagate(self) -> Optional[Clause]:
        """Propagate XORs over newly assigned trail literals.

        Returns a conflict (as an ordinary clause over current-false
        literals) or None.  Implied literals are enqueued on the solver
        trail with a reason clause so 1UIP analysis sees through them.
        """
        solver = self.solver
        while self.xhead < len(solver.trail):
            lit = solver.trail[self.xhead]
            self.xhead += 1
            v = lit >> 1
            for x in list(self.watches.get(v, ())):
                confl = self._update(x, v)
                if confl is not None:
                    return confl
        return None

    def _update(self, x: XorClause, assigned_var: int) -> Optional[Clause]:
        val = self.solver.val
        # Identify which watch fired.
        if x.vars[x.watch_a] == assigned_var:
            fired, other = x.watch_a, x.watch_b
        elif x.vars[x.watch_b] == assigned_var:
            fired, other = x.watch_b, x.watch_a
        else:
            return None  # stale watch entry
        # Try to move the fired watch to an unassigned variable.
        for k, u in enumerate(x.vars):
            if k == other or k == fired:
                continue
            if val[u << 1] == UNDEF:
                self.watches[assigned_var].remove(x)
                self.watches.setdefault(u, []).append(x)
                if fired == x.watch_a:
                    x.watch_a = k
                else:
                    x.watch_b = k
                return None
        # No replacement: all vars assigned except possibly the other watch.
        other_var = x.vars[other]
        parity = x.rhs
        for u in x.vars:
            if u == other_var:
                continue
            parity ^= val[u << 1]  # all others are assigned here
        if val[other_var << 1] == UNDEF:
            implied = mk_lit(other_var, negated=(parity == 0))
            reason = self._reason_clause(x, other_var, implied)
            self.solver._unchecked_enqueue(implied, reason)
            return None
        if val[other_var << 1] != parity:
            return self._conflict_clause(x)
        return None

    def _reason_clause(self, x: XorClause, implied_var: int, implied_lit: int) -> Clause:
        val = self.solver.val
        lits = [implied_lit]
        for u in x.vars:
            if u == implied_var:
                continue
            # The literal asserting the *opposite* of u's value is false now.
            lits.append(mk_lit(u, negated=(val[u << 1] == TRUE)))
        return Clause(lits, learnt=False)

    def _conflict_clause(self, x: XorClause) -> Clause:
        val = self.solver.val
        lits = [mk_lit(u, negated=(val[u << 1] == TRUE)) for u in x.vars]
        return Clause(lits, learnt=False)

"""A conflict-driven clause-learning (CDCL) SAT solver.

This is the reproduction's stand-in for MiniSat / Lingeling /
CryptoMiniSat5.  It implements the standard modern architecture the paper
relies on:

* two-literal watching for unit propagation,
* VSIDS variable activities with phase saving,
* first-UIP conflict analysis with clause minimisation,
* Luby restarts and activity-based learnt-database reduction,
* **conflict budgets** (the paper bounds the solver by conflicts, not time,
  for replicability — section II-D), and
* an API to harvest learnt facts: level-0 units and learnt binary clauses,
  which Bosphorus converts back into ANF linear equations.

An optional :class:`repro.sat.xorengine.XorEngine` can be attached to give
the solver native XOR reasoning (our CryptoMiniSat personality).

Values live in one literal-indexed array: ``val[lit]`` is TRUE (1),
FALSE (0) or UNDEF (-1), so a variable ``v``'s value is ``val[2 * v]``
and ``val[2 * v + 1]`` holds its complement.  The propagation loop relies
on that encoding: ``val[l] == 1`` means true, a non-zero ``val[l]`` means
not false.  The decision heap keeps at most one live entry per variable:
``heap_key[v]`` is the activity that entry was pushed with (None when
there is none).  The search is pinned by the golden trajectories in
``tests/golden``.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

from .clause import Clause
from .types import FALSE, TRUE, UNDEF

#: Result of :meth:`Solver.solve`.
SAT = True
UNSAT = False
UNKNOWN = None


@dataclass
class SolverConfig:
    """Tunables defining a solver personality.

    ``seed`` switches on *diversification* for portfolio solving: initial
    polarities are drawn at random and branch decisions occasionally pick
    a random unassigned variable instead of the VSIDS maximum
    (``random_branch_freq``, MiniSat's ``random_var_freq`` idea).  The
    randomness is a private ``random.Random(seed)``, so a given seed is
    bit-for-bit reproducible; ``seed=None`` (the default) consults no RNG
    at all and preserves the undiversified search exactly.
    """

    var_decay: float = 0.95
    clause_decay: float = 0.999
    restart_base: int = 100
    use_luby: bool = True
    phase_saving: bool = True
    default_phase: bool = False
    learnt_keep_base: int = 4000
    learnt_keep_step: int = 300
    minimize_learnts: bool = True
    seed: Optional[int] = None
    random_branch_freq: float = 0.02


def luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence.

    Uses MiniSat's iterative formulation: find the subsequence containing
    index ``i`` and the position within it.
    """
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x = x % size
    return 1 << seq


class Solver:
    """CDCL SAT solver over literals encoded as in :mod:`repro.sat.types`."""

    def __init__(self, config: Optional[SolverConfig] = None):
        self.config = config or SolverConfig()
        self._rng = (
            random.Random(self.config.seed)
            if self.config.seed is not None
            else None
        )
        self.n_vars = 0
        self.clauses: List[Clause] = []
        self.learnts: List[Clause] = []
        self.watches: List[List[Clause]] = []
        self.val: List[int] = []
        self.level: List[int] = []
        self.reason: List[Optional[Clause]] = []
        self.activity: List[float] = []
        self.heap_key: List[Optional[float]] = []
        self.polarity: List[bool] = []
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.cla_inc = 1.0
        self._heap: List[Tuple[float, int]] = []
        # Conflict-analysis marks; all False between calls to analyze().
        self._seen: List[bool] = []
        self.ok = True
        self.model: List[int] = []
        # Statistics.
        self.num_conflicts = 0
        self.num_decisions = 0
        self.num_propagations = 0
        self.num_restarts = 0
        self.num_reductions = 0
        # Assumption-failure signal: set by solve() when UNSAT was only
        # proven *under the given assumptions* (a cube), not globally.
        self.assumptions_failed = False
        self.failed_assumption: Optional[int] = None
        # Learnt-fact bookkeeping for Bosphorus.
        self.learnt_binaries: Set[Tuple[int, int]] = set()
        self.xor_engine = None  # set via attach_xor_engine
        # Optional DRAT proof logging (pure-CNF solving only).
        self.proof = None  # assign a repro.sat.drat.DratProof before solving

    # -- variables -----------------------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable; returns its index."""
        v = self.n_vars
        self.n_vars += 1
        self.watches.append([])
        self.watches.append([])
        self.val.append(UNDEF)
        self.val.append(UNDEF)
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.heap_key.append(0.0)
        self._seen.append(False)
        if self._rng is not None:
            self.polarity.append(self._rng.random() < 0.5)
        else:
            self.polarity.append(self.config.default_phase)
        heapq.heappush(self._heap, (0.0, v))
        return v

    def ensure_vars(self, n: int) -> None:
        """Grow the variable pool to at least ``n`` variables."""
        while self.n_vars < n:
            self.new_var()

    def value_lit(self, lit: int) -> int:
        """TRUE/FALSE/UNDEF value of a literal under the current trail."""
        return self.val[lit]

    @property
    def decision_level(self) -> int:
        return len(self.trail_lim)

    # -- clause management -----------------------------------------------------

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a problem clause.  Returns False if the solver became UNSAT.

        Must be called at decision level 0.  Duplicate literals collapse;
        tautologies are dropped; false literals (level-0) are removed.
        """
        return self.add_clauses((lits,))

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> bool:
        """Add problem clauses in order, each exactly as :meth:`add_clause`
        would.  Returns False, and adds no further clause, as soon as the
        solver becomes UNSAT."""
        if not self.ok:
            return False
        assert self.decision_level == 0
        val = self.val
        for lits in clauses:
            out: List[int] = []
            for l in lits:
                if l >> 1 >= self.n_vars:
                    self.ensure_vars((l >> 1) + 1)
                if l ^ 1 in out:
                    break  # tautology
                x = val[l]
                if x == TRUE:
                    break  # already satisfied at level 0
                if x == UNDEF and l not in out:
                    out.append(l)
                # A literal false at level 0 is dropped.
            else:
                if len(out) > 1:
                    c = Clause(out, learnt=False)
                    self.clauses.append(c)
                    self._attach(c)
                    continue
                if out:
                    self._unchecked_enqueue(out[0], None)
                    self.ok = self.propagate() is None
                else:
                    self.ok = False
                if not self.ok:
                    if self.proof is not None:
                        self.proof.add_empty()
                    return False
        return True

    def _attach(self, c: Clause) -> None:
        self.watches[c.lits[0] ^ 1].append(c)
        self.watches[c.lits[1] ^ 1].append(c)

    def _detach(self, c: Clause) -> None:
        self.watches[c.lits[0] ^ 1].remove(c)
        self.watches[c.lits[1] ^ 1].remove(c)

    def attach_xor_engine(self, engine) -> None:
        """Install an XOR reasoning engine (see :mod:`repro.sat.xorengine`)."""
        if self.proof is not None:
            raise ValueError(
                "DRAT proof logging is not supported with the XOR engine"
            )
        self.xor_engine = engine
        engine.bind(self)

    # -- trail ----------------------------------------------------------------

    def _unchecked_enqueue(self, lit: int, reason: Optional[Clause]) -> None:
        val = self.val
        val[lit] = TRUE
        val[lit ^ 1] = FALSE
        v = lit >> 1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def enqueue(self, lit: int, reason: Optional[Clause]) -> bool:
        """Assert a literal; False signals an immediate conflict."""
        x = self.val[lit]
        if x == FALSE:
            return False
        if x == UNDEF:
            self._unchecked_enqueue(lit, reason)
        return True

    def decide(self, lit: int) -> None:
        """Open a new decision level with ``lit`` as its decision."""
        self.trail_lim.append(len(self.trail))
        self._unchecked_enqueue(lit, None)

    def cancel_until(self, target_level: int) -> None:
        """Backtrack, unassigning everything above ``target_level``."""
        trail_lim = self.trail_lim
        if len(trail_lim) <= target_level:
            return
        trail = self.trail
        bound = trail_lim[target_level]
        val = self.val
        reason = self.reason
        activity = self.activity
        heap_key = self.heap_key
        heap = self._heap
        polarity = self.polarity
        save_phase = self.config.phase_saving
        for lit in trail[bound:]:
            v = lit >> 1
            if save_phase:
                polarity[v] = not (lit & 1)
            val[lit] = val[lit ^ 1] = UNDEF
            reason[v] = None
            # Re-enter the heap unless v's live entry is still current.
            a = activity[v]
            if heap_key[v] != a:
                heap_key[v] = a
                heapq.heappush(heap, (-a, v))
        del trail[bound:]
        del trail_lim[target_level:]
        self.qhead = len(trail)
        if self.xor_engine is not None:
            self.xor_engine.on_backtrack()

    # -- propagation ------------------------------------------------------------

    def propagate(self) -> Optional[Clause]:
        """Unit propagation to fixpoint.  Returns a conflicting clause or None."""
        while True:
            confl = self._propagate_cnf()
            if confl is not None:
                return confl
            if self.xor_engine is None:
                return None
            confl = self.xor_engine.propagate()
            if confl is not None:
                return confl
            if self.qhead == len(self.trail):
                return None

    def _propagate_cnf(self) -> Optional[Clause]:
        trail = self.trail
        qhead = start = self.qhead
        val = self.val
        watches = self.watches
        level = self.level
        reason = self.reason
        lvl = len(self.trail_lim)
        confl = None
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            false_lit = p ^ 1
            ws = watches[p]
            n = len(ws)
            i = j = 0  # ws[:j] kept so far, ws[i:] still to visit
            while i < n:
                c = ws[i]
                i += 1
                lits = c.lits
                # Ensure the falsified watch (¬p) sits at position 1.
                first = lits[0]
                if first == false_lit:
                    first = lits[1]
                    lits[0] = first
                    lits[1] = false_lit
                if val[first] == 1:
                    ws[j] = c
                    j += 1
                    continue
                # Look for a replacement watch: any literal not false.
                for k in range(2, len(lits)):
                    l = lits[k]
                    if val[l]:
                        lits[1] = l
                        lits[k] = false_lit
                        watches[l ^ 1].append(c)
                        break
                else:
                    ws[j] = c
                    j += 1
                    if val[first] == 0:
                        confl = c
                        break
                    val[first] = 1
                    val[first ^ 1] = 0
                    v = first >> 1
                    level[v] = lvl
                    reason[v] = c
                    trail.append(first)
            del ws[j:i]
            if confl is not None:
                break
        self.num_propagations += qhead - start
        self.qhead = qhead
        return confl

    # -- conflict analysis --------------------------------------------------------

    def _rescale_activity(self) -> None:
        """Scale every variable activity (and the increment) by 1e-100,
        then rebuild the heap with one live entry per unassigned variable."""
        activity = self.activity
        for u in range(self.n_vars):
            activity[u] *= 1e-100
        self.var_inc *= 1e-100
        val = self.val
        heap_key = self.heap_key
        heap = []
        for u in range(self.n_vars):
            if val[u << 1] == UNDEF:
                heap.append((-activity[u], u))
                heap_key[u] = activity[u]
            else:
                heap_key[u] = None
        heapq.heapify(heap)
        self._heap = heap

    def _bump_clause(self, c: Clause) -> None:
        c.activity += self.cla_inc
        if c.activity > 1e20:
            for lc in self.learnts:
                lc.activity *= 1e-20
            self.cla_inc *= 1e-20

    def analyze(self, confl: Clause) -> Tuple[List[int], int]:
        """First-UIP conflict analysis.

        Returns ``(learnt_clause, backtrack_level)`` with the asserting
        literal first and a literal of the backtrack level second.
        """
        seen = self._seen
        level = self.level
        reason = self.reason
        trail = self.trail
        activity = self.activity
        var_inc = self.var_inc
        learnt: List[int] = [0]
        counter = 0
        p = -1
        index = len(trail) - 1
        cur_level = len(self.trail_lim)
        # Highest level among learnt[1:] and the first index holding it.
        bt = 0
        bt_i = 1
        c = confl
        while True:
            if c.learnt:
                self._bump_clause(c)
            for q in c.lits if p == -1 else c.lits[1:]:
                v = q >> 1
                if seen[v]:
                    continue
                lv = level[v]
                if lv == 0:
                    continue
                seen[v] = True
                # Every variable met here is assigned, so bumping it never
                # needs a heap push: cancel_until re-enters it later.
                activity[v] += var_inc
                if activity[v] > 1e100:
                    self._rescale_activity()
                    var_inc = self.var_inc
                if lv >= cur_level:
                    counter += 1
                else:
                    if lv > bt:
                        bt = lv
                        bt_i = len(learnt)
                    learnt.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            v = p >> 1
            c = reason[v]
            seen[v] = False
            counter -= 1
            index -= 1
            if counter == 0:
                break
        learnt[0] = p ^ 1

        out = learnt
        if self.config.minimize_learnts and len(learnt) > 1:
            out, bt_i = self._minimize(learnt)
        for q in learnt[1:]:
            seen[q >> 1] = False

        if len(out) == 1:
            return out, 0
        out[1], out[bt_i] = out[bt_i], out[1]
        return out, level[out[1] >> 1]

    def _minimize(self, learnt: List[int]) -> Tuple[List[int], int]:
        """Local clause minimisation: drop literals implied by the rest.

        Needs ``_seen`` marked for every variable of ``learnt[1:]``.
        Returns the kept clause and the index of its first literal of the
        highest level (>= 1 unless the clause is a unit).
        """
        seen = self._seen
        level = self.level
        reason = self.reason
        out = [learnt[0]]
        bt = 0
        bt_i = 1
        for l in learnt[1:]:
            v = l >> 1
            r = reason[v]
            if r is not None:
                nl = l ^ 1
                for q in r.lits:
                    if q != nl and not seen[q >> 1] and level[q >> 1]:
                        break
                else:
                    continue  # implied by the other literals: drop it
            lv = level[v]
            if lv > bt:
                bt = lv
                bt_i = len(out)
            out.append(l)
        return out, bt_i

    # -- learnt database -----------------------------------------------------------

    def _record_learnt(self, lits: List[int]) -> None:
        if self.proof is not None:
            self.proof.add(lits)
        if len(lits) == 1:
            self.cancel_until(0)
            self._unchecked_enqueue(lits[0], None)
            return
        c = Clause(list(lits), learnt=True)
        self.learnts.append(c)
        self._attach(c)
        self._bump_clause(c)
        if len(lits) == 2:
            a, b = sorted(lits)
            self.learnt_binaries.add((a, b))
        self._unchecked_enqueue(lits[0], c)

    def reduce_db(self) -> None:
        """Throw away half of the inactive learnt clauses."""
        self.num_reductions += 1
        reason = self.reason
        locked = {id(reason[l >> 1]) for l in self.trail if reason[l >> 1]}
        self.learnts.sort(key=lambda c: (len(c.lits) <= 2, c.activity))
        keep_from = len(self.learnts) // 2
        kept: List[Clause] = []
        for i, c in enumerate(self.learnts):
            if i >= keep_from or len(c.lits) <= 2 or id(c) in locked:
                kept.append(c)
            else:
                self._detach(c)
                if self.proof is not None:
                    self.proof.delete(c.lits)
        self.learnts = kept

    # -- decisions ----------------------------------------------------------------

    def _pick_branch_var(self) -> int:
        val = self.val
        if (
            self._rng is not None
            and self.n_vars
            and self._rng.random() < self.config.random_branch_freq
        ):
            # Diversification: a random unassigned variable breaks the
            # VSIDS tie deterministically per seed.  A few probes keep
            # this O(1); on a miss we fall through to the heap.
            for _ in range(3):
                v = self._rng.randrange(self.n_vars)
                if val[v << 1] == UNDEF:
                    return v
        heap = self._heap
        heap_key = self.heap_key
        while heap:
            neg_act, v = heapq.heappop(heap)
            if heap_key[v] == -neg_act:  # v's live entry, not a stale one
                heap_key[v] = None
                if val[v << 1] == UNDEF:
                    return v
        for v in range(self.n_vars):
            if val[v << 1] == UNDEF:
                return v
        return -1

    # -- main search -----------------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_budget: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
    ) -> Optional[bool]:
        """Run CDCL search.

        Returns ``True`` (SAT, with :attr:`model` filled), ``False``
        (UNSAT) or ``None`` when the conflict budget ran out (the paper's
        "undecidable within the limit" case) or ``stop()``, asked once
        after each conflict, returned True.  ``stop`` only reads, so a
        search it never stops is the search without it.  The solver
        always returns backtracked to level 0, so level-0 trail literals
        are valid learnt facts afterwards.

        An UNSAT answer under non-empty ``assumptions`` is ambiguous: the
        formula may be globally UNSAT, or merely UNSAT *under this cube*.
        The two are distinguished by :attr:`assumptions_failed`: it is
        True iff the refutation hinged on a falsified assumption literal
        (stored in :attr:`failed_assumption`), in which case the global
        formula may still be satisfiable and :attr:`ok` stays True.  When
        it is False, the UNSAT verdict is unconditional.  Assumptions are
        enqueued as *decisions* (level >= 1), never at level 0, so
        :meth:`level0_literals` only ever reports cube-independent facts.
        """
        self.assumptions_failed = False
        self.failed_assumption = None
        if not self.ok:
            return False
        if self.propagate() is not None:
            self.ok = False
            if self.proof is not None:
                self.proof.add_empty()
            return False
        config = self.config
        val = self.val
        budget_start = self.num_conflicts
        restart_count = 0
        conflicts_this_restart = 0
        restart_limit = self._restart_limit(restart_count)
        max_learnts = config.learnt_keep_base

        while True:
            confl = self.propagate()
            if confl is not None:
                self.num_conflicts += 1
                conflicts_this_restart += 1
                if not self.trail_lim:
                    self.ok = False
                    if self.proof is not None:
                        self.proof.add_empty()
                    return False
                learnt, bt = self.analyze(confl)
                self.cancel_until(bt)
                self._record_learnt(learnt)
                self.var_inc /= config.var_decay
                self.cla_inc /= config.clause_decay
                if (
                    conflict_budget is not None
                    and self.num_conflicts - budget_start >= conflict_budget
                ) or (stop is not None and stop()):
                    self.cancel_until(0)
                    return UNKNOWN
                continue

            if conflicts_this_restart >= restart_limit:
                self.num_restarts += 1
                restart_count += 1
                conflicts_this_restart = 0
                restart_limit = self._restart_limit(restart_count)
                self.cancel_until(0)
                continue

            if (
                len(self.learnts)
                > max_learnts + config.learnt_keep_step * self.num_reductions
            ):
                self.reduce_db()

            # Apply assumptions, then decide.
            next_lit = None
            for a in assumptions:
                x = val[a]
                if x == TRUE:
                    continue
                if x == FALSE:
                    # UNSAT relative to the cube only: ¬a is implied by
                    # the formula plus the *earlier* assumptions.  The
                    # global formula may still be SAT, so self.ok is left
                    # untouched and the failure is signalled instead.
                    self.assumptions_failed = True
                    self.failed_assumption = a
                    self.cancel_until(0)
                    return UNSAT
                next_lit = a
                break
            if next_lit is None:
                v = self._pick_branch_var()
                if v == -1:
                    self.model = val[0::2]
                    self.cancel_until(0)
                    return SAT
                next_lit = (v << 1) | (0 if self.polarity[v] else 1)
            self.num_decisions += 1
            self.decide(next_lit)

    def _restart_limit(self, count: int) -> int:
        if self.config.use_luby:
            return self.config.restart_base * luby(count + 1)
        return int(self.config.restart_base * (1.1 ** count))

    # -- learnt-fact harvesting (Bosphorus API) ------------------------------------

    def level0_literals(self) -> List[int]:
        """Literals the solver has proven at decision level 0.

        These are the paper's "unit learnt clauses": facts that hold in
        every model and can be fed back into the ANF.
        """
        bound = self.trail_lim[0] if self.trail_lim else len(self.trail)
        return list(self.trail[:bound])

    def learnt_binary_clauses(self) -> List[Tuple[int, int]]:
        """All binary clauses ever learnt (survives DB reduction)."""
        return sorted(self.learnt_binaries)

"""ANF propagation (paper section II-A), as an incremental engine.

For each polynomial we try to extract a value assignment, a monomial
assignment or an equivalence, and rewrite the rest of the system under the
new information.  Applied to fixed point, driven by the *persistent*
occurrence lists on :class:`~repro.anf.system.AnfSystem` (section III-B's
optimisation), so only affected equations are revisited.

Architecture
------------
* The engine edits the master system **in place** through
  ``AnfSystem.replace_at``/``remove_at``; there is no per-call occurrence
  rebuild and no end-of-run whole-system sweep.  A full fixpoint pass
  costs O(affected equations), and an incremental call costs only the
  closure of the dirty set.
* ``propagate(system, dirty=...)`` seeds the worklist with just the
  changed equations (indices or the polynomials themselves).  This is the
  API the Bosphorus ``_absorb`` loop and failed-literal probing use, so a
  batch of k facts no longer pays O(system) to fold in.
* The worklist holds polynomials (the system deduplicates, so a
  polynomial names its equation); swap-removals can renumber slots, and
  ``AnfSystem.index_of`` resolves the current slot on pop.
* The *linear* residuals (degree <= 1 but not unit/equivalence shaped)
  are not rewritten pairwise: each connected group is echelonised through
  :class:`~repro.gf2.matrix.GF2Matrix` RREF, and any unit/equivalence
  rows that fall out feed straight back into the worklist.

The master system's polynomial list ends up holding only the *residual*
equations; determined values and equivalence literals live in the
:class:`~repro.anf.system.VariableState`.  Use :func:`materialize` to get
the full equation list back (residuals + units + equivalences) — that is
what Bosphorus reports as the processed ANF.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Optional, Set, Union

from ..anf import monomial as mono
from ..anf.polynomial import Poly
from ..anf.system import AnfSystem, ContradictionError
from ..gf2.elimination import eliminate
from ..gf2.matrix import GF2Matrix
from dataclasses import dataclass


@dataclass
class PropagationStats:
    """What one propagation run discovered.

    ``rounds`` counts fixpoint *waves* (the seed equations are round 1;
    equations they dirty are round 2, and so on), not worklist pops —
    ``processed`` holds the pop count.  ``linear_reductions`` counts
    GF(2) echelonisation passes over linear residual groups.
    """

    assignments: int = 0
    equivalences: int = 0
    monomial_assignments: int = 0
    rounds: int = 0
    processed: int = 0
    linear_reductions: int = 0

    @property
    def changed(self) -> bool:
        return bool(self.assignments or self.equivalences or self.monomial_assignments)


#: Seed type for :func:`propagate`: equation indices or the equations.
Dirty = Iterable[Union[int, Poly]]


def propagate(
    system: AnfSystem, dirty: Optional[Dirty] = None, linear: bool = True
) -> PropagationStats:
    """Run ANF propagation to fixed point on the master system.

    Mutates ``system`` in place: its variable state absorbs the learnt
    units/equivalences and its polynomial list keeps only the normalised
    residual equations.  Raises
    :class:`~repro.anf.system.ContradictionError` if ``1 = 0`` appears.

    ``dirty`` seeds the worklist incrementally: pass the equations (or
    their indices) that changed since the last fixpoint and only their
    closure is revisited.  ``dirty=None`` seeds every equation (a full
    pass).  Incremental calls assume the rest of the system was already
    at fixpoint, which is the invariant the Bosphorus loop maintains.

    ``linear=False`` skips the GF(2) echelonisation of linear residual
    groups — the cheap unit/equivalence worklist only.  Lookahead-style
    callers (failed-literal probing) use it: they run many speculative
    fixpoints on scratch copies, where the per-branch component crawl
    costs more than the extra deductions are worth.
    """
    stats = PropagationStats()
    state = system.state
    polys = system.polynomials

    worklist: Deque[Poly] = deque()
    queued: Set[Poly] = set()

    def enqueue(p: Poly) -> None:
        if p not in queued:
            queued.add(p)
            worklist.append(p)

    full_pass = dirty is None
    if full_pass:
        for p in polys:
            enqueue(p)
    else:
        n = len(polys)
        for d in dirty:
            if isinstance(d, int):
                if 0 <= d < n:
                    enqueue(polys[d])
            else:
                enqueue(d)

    def requeue(var: int) -> None:
        for idx in system.occurrences(var):
            enqueue(polys[idx])

    # Linear residuals touched since the last echelonisation; seeds the
    # GF(2) phase so incremental calls only reduce affected groups.
    linear_dirty: Set[Poly] = (
        set(p for p in queued if _is_linear_residual(p)) if linear else set()
    )

    frontier = len(worklist)
    if frontier:
        stats.rounds = 1

    while True:
        while worklist:
            if frontier == 0:
                stats.rounds += 1
                frontier = len(worklist)
            frontier -= 1
            p = worklist.popleft()
            queued.discard(p)
            idx = system.index_of(p)
            if idx is None:
                continue  # replaced or removed since it was queued
            stats.processed += 1
            np = system.normalize(p)
            if np.is_zero():
                system.remove_at(idx)
                linear_dirty.discard(p)
                continue
            if np.is_one():
                raise ContradictionError("propagation derived 1 = 0")

            unit = np.as_unit()
            if unit is not None:
                var, value = unit
                system.remove_at(idx)
                linear_dirty.discard(p)
                state.ensure(var)
                if state.assign(var, value):
                    stats.assignments += 1
                    requeue(var)
                continue

            equiv = np.as_equivalence()
            if equiv is not None:
                a, b, parity = equiv
                system.remove_at(idx)
                linear_dirty.discard(p)
                state.ensure(max(a, b))
                if state.equate(a, b, parity):
                    stats.equivalences += 1
                    requeue(a)
                    requeue(b)
                continue

            mono_assign = np.as_monomial_assignment()
            if mono_assign is not None and len(mono_assign) >= 2:
                # x_{i1}..x_{ip} ⊕ 1 forces every variable to 1.
                system.remove_at(idx)
                linear_dirty.discard(p)
                stats.monomial_assignments += 1
                for v in mono_assign:
                    state.ensure(v)
                    if state.assign(v, 1):
                        stats.assignments += 1
                        requeue(v)
                continue

            if np is not p:
                linear_dirty.discard(p)
                if system.replace_at(idx, np) and linear and _is_linear_residual(np):
                    linear_dirty.add(np)
            elif linear and full_pass and _is_linear_residual(p):
                linear_dirty.add(p)

        # Worklist drained: echelonise the affected linear residuals.
        if not linear:
            break
        seeds = [p for p in linear_dirty if p in system]
        linear_dirty.clear()
        if not seeds:
            break
        fresh = _reduce_linear_groups(system, seeds, stats)
        if not fresh:
            break
        # Fresh rows are unit/equivalence shaped (<= 2 variables), never
        # linear residuals, so they feed the worklist only.
        for p in fresh:
            enqueue(p)
        frontier = len(worklist)
        stats.rounds += 1

    return stats


def _is_linear_residual(p: Poly) -> bool:
    """Linear equations that are not already fact-shaped (unit/equiv)."""
    if p.degree() != 1:
        return False
    # Units and equivalences are consumed by the worklist; anything with
    # three or more variables stays residual and is GJE material.  The
    # popcount of the cached support mask avoids materialising the
    # variable frozenset on polynomials that only pass through here.
    return p.support_mask().bit_count() >= 3


def _reduce_linear_groups(
    system: AnfSystem, seeds: List[Poly], stats: PropagationStats
) -> List[Poly]:
    """RREF each connected group of linear residuals around the seeds.

    Groups are connected components of the share-a-variable graph over
    the system's *linear* residuals, discovered through the persistent
    occurrence lists, so the cost scales with the affected component and
    not the system.  Returns the newly introduced equations (already
    added to the system) so the caller can push them onto the worklist.
    """
    polys = system.polynomials
    visited: Set[Poly] = set()
    fresh: List[Poly] = []
    for seed in seeds:
        if seed in visited or seed not in system:
            continue
        # -- gather the connected component of linear residuals ------------
        # The frontier of unseen variables is computed with width-adaptive
        # mask ops (support mask AND NOT seen mask), so the crawl cost is
        # O(limbs) per equation plus the genuinely new variables.
        group: List[Poly] = []
        stack = [seed]
        visited.add(seed)
        seen_mask = 0
        while stack:
            p = stack.pop()
            group.append(p)
            new_mask = p.support_mask() & ~seen_mask
            seen_mask |= new_mask
            for v in mono.bits_of(new_mask):
                for idx in system.occurrences(v):
                    q = polys[idx]
                    if q not in visited and _is_linear_residual(q):
                        visited.add(q)
                        stack.append(q)
        if len(group) < 2:
            continue
        # Skip groups whose exact row set already echelonised to nothing:
        # any derived fact rewrites at least one member (its variables
        # live in the group), so an unchanged row set can only re-derive
        # nothing.  The memo lives on the system and travels with copies.
        key = frozenset(group)
        memo = system._linear_nofact_memo
        if key in memo:
            continue
        stats.linear_reductions += 1
        # -- echelonise over the component's variables ---------------------
        # Highest variable leftmost (mirrors the deglex column order used
        # by the XL/ElimLin linearisation), constant column last.
        columns = mono.bits_of(seen_mask)[::-1]
        col_of = {v: i for i, v in enumerate(columns)}
        const_col = len(columns)
        matrix = GF2Matrix.from_rows(
            [
                [col_of[m.bit_length() - 1] if m else const_col for m in p]
                for p in group
            ],
            const_col + 1,
        )
        eliminate(matrix)
        n_fresh_before = len(fresh)
        # Harvest only the *fact-shaped* rows (units and equivalences in
        # at most two variables).  Replacing the whole group by its RREF
        # would be sound but densifies the residuals — long XOR rows are
        # poison for the CNF conversion — so the sparse originals stay
        # and only the implied facts are folded in.  Rows are filtered by
        # a vectorised popcount first so only candidate rows are decoded.
        for i in matrix.rows_with_weight_at_most(3):
            cols = matrix.row_cols(i)
            if not cols:
                continue
            if cols == [const_col]:
                raise ContradictionError("linear reduction derived 1 = 0")
            n_vars = len(cols) - (1 if cols[-1] == const_col else 0)
            if n_vars > 2:
                continue
            p = Poly._from_frozenset(
                frozenset(
                    [1 << columns[j] if j < const_col else 0 for j in cols]
                )
            )
            if system.add(p):
                fresh.append(p)
        if len(fresh) == n_fresh_before:
            if len(memo) > 4096:
                memo.clear()
            memo.add(key)
    return fresh


def state_polynomials(system: AnfSystem) -> List[Poly]:
    """Unit and equivalence equations held in the variable state."""
    out: List[Poly] = []
    for v in range(system.state.n_vars):
        val = system.state.value(v)
        if val is not None:
            # The unit equation x + val = 0 forces x = val.
            out.append(Poly.variable(v).add_constant(val))
        else:
            root, parity = system.state.find(v)
            if root != v:
                out.append(
                    Poly.variable(v) + Poly.variable(root) + Poly.constant(parity)
                )
    return out


def materialize(system: AnfSystem) -> List[Poly]:
    """The full processed ANF: residual equations plus state facts."""
    return state_polynomials(system) + list(system.polynomials)

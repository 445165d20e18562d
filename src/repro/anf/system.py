"""The master ANF system and per-variable state.

This is the reproduction of Bosphorus's central data structure (paper
section III-B): the list of Boolean polynomials plus, for every variable,

* its value (0, 1 or undetermined),
* its equivalence literal (which variable it equals, possibly negated), and
* its occurrence list (which equations mention it).

Equivalences are stored as a union-find over variables with an XOR parity
on each link, so ``x = ¬y`` and ``y = z`` compose correctly and a
contradictory merge is detected immediately.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from . import monomial as mono
from .polynomial import Poly
from .ring import Ring


class ContradictionError(Exception):
    """Raised when the system is discovered to contain ``1 = 0``."""


class VariableState:
    """Union-find with parity tracking values and equivalence literals."""

    def __init__(self, n_vars: int = 0):
        self._parent: List[int] = list(range(n_vars))
        self._parity: List[int] = [0] * n_vars
        self._value: List[Optional[int]] = [None] * n_vars
        # Mask over every variable that might have a non-trivial
        # substitution (a value or a non-root representative).  Lets
        # AnfSystem.normalize skip untouched variables without a
        # union-find walk: "does this polynomial mention any touched
        # variable" is a single width-adaptive AND against the
        # polynomial's cached support mask.
        self._touched_mask: int = 0
        # Literal-substitution cache: variable -> (None, c) for a value,
        # (root, parity) for an equivalence literal, or None when the
        # variable is its own representative.  Cleared wholesale on every
        # state change (assign/equate), so entries are always current.
        self._lit_cache: Dict[int, Optional[Tuple[Optional[int], int]]] = {}

    def ensure(self, index: int) -> None:
        """Grow state so ``index`` is valid."""
        while len(self._parent) <= index:
            self._parent.append(len(self._parent))
            self._parity.append(0)
            self._value.append(None)

    @property
    def n_vars(self) -> int:
        return len(self._parent)

    @property
    def touched_mask(self) -> int:
        """Mask over every variable that may have a non-trivial
        substitution (value or representative).  A superset, never stale:
        bits are only ever added."""
        return self._touched_mask

    def find(self, v: int) -> Tuple[int, int]:
        """Return ``(root, parity)`` such that ``x_v = x_root ⊕ parity``."""
        parity = 0
        root = v
        while self._parent[root] != root:
            parity ^= self._parity[root]
            root = self._parent[root]
        # Path compression, keeping parities consistent.
        node, p = v, parity
        while self._parent[node] != node:
            nxt = self._parent[node]
            nxt_p = p ^ self._parity[node]
            self._parent[node] = root
            self._parity[node] = p
            node, p = nxt, nxt_p
        return root, parity

    def value(self, v: int) -> Optional[int]:
        """Current value of the variable, or None if undetermined."""
        root, parity = self.find(v)
        val = self._value[root]
        if val is None:
            return None
        return val ^ parity

    def representative(self, v: int) -> Tuple[int, int]:
        """The equivalence literal ``(variable, negated)`` for ``v``.

        If the variable has a value this still returns the class root; use
        :meth:`value` first when a constant is wanted.
        """
        return self.find(v)

    def assign(self, v: int, value: int) -> bool:
        """Set ``x_v = value``.  Returns True if this was new information.

        Raises :class:`ContradictionError` on conflict.
        """
        root, parity = self.find(v)
        self._touched_mask |= (1 << v) | (1 << root)
        self._lit_cache.clear()
        want = value ^ parity
        have = self._value[root]
        if have is None:
            self._value[root] = want
            return True
        if have != want:
            raise ContradictionError(
                "conflicting assignment for variable {}".format(v)
            )
        return False

    def equate(self, a: int, b: int, parity: int) -> bool:
        """Record ``x_a = x_b ⊕ parity``.  Returns True if new information.

        Raises :class:`ContradictionError` on conflict.
        """
        ra, pa = self.find(a)
        rb, pb = self.find(b)
        self._touched_mask |= (1 << a) | (1 << b) | (1 << ra) | (1 << rb)
        self._lit_cache.clear()
        joint = pa ^ pb ^ parity
        if ra == rb:
            if joint:
                raise ContradictionError(
                    "contradictory equivalence between {} and {}".format(a, b)
                )
            return False
        va, vb = self._value[ra], self._value[rb]
        # Attach the root without a value beneath the one with, so values
        # survive the merge; if both have values, check consistency.
        if va is not None and vb is not None:
            if va != (vb ^ joint):
                raise ContradictionError(
                    "equivalence conflicts with values of {} and {}".format(a, b)
                )
            # Consistent; just merge.
        if va is not None and vb is None:
            ra, rb = rb, ra
            va, vb = vb, va
            # joint is symmetric
        self._parent[ra] = rb
        self._parity[ra] = joint
        if vb is None and va is not None:
            self._value[rb] = va ^ joint
        return True

    def clone(self) -> "VariableState":
        """Structural copy (parent/parity/value arrays), O(n_vars)."""
        other = VariableState(0)
        other._parent = list(self._parent)
        other._parity = list(self._parity)
        other._value = list(self._value)
        other._touched_mask = self._touched_mask
        other._lit_cache = {}
        return other

    def literal_of(self, v: int) -> Optional[Tuple[Optional[int], int]]:
        """The literal substitution for ``v`` in encoded form, cached.

        Returns ``(None, c)`` when the variable has value ``c``,
        ``(root, parity)`` when it rewrites to another variable (possibly
        negated), or None when it is its own representative.  This is the
        exact encoding :meth:`Poly.substitute_literals` consumes, so ANF
        propagation never round-trips substitutions through ``Poly``
        objects.
        """
        cache = self._lit_cache
        if v in cache:
            return cache[v]
        val = self.value(v)
        if val is not None:
            entry: Optional[Tuple[Optional[int], int]] = (None, val)
        else:
            root, parity = self.find(v)
            entry = (root, parity) if root != v else None
        cache[v] = entry
        return entry

    def as_assignment(self, n_vars: int, default: int = 0) -> List[int]:
        """Concrete assignment: determined values, ``default`` elsewhere.

        Equivalence classes without a value collapse onto the default of
        their root so equivalences stay satisfied.
        """
        out = []
        for v in range(n_vars):
            val = self.value(v)
            if val is None:
                root, parity = self.find(v)
                val = default ^ parity
            out.append(val)
        return out


class AnfSystem:
    """A system of Boolean polynomial equations with occurrence lists.

    Every stored polynomial represents the equation ``p = 0``.  The system
    deduplicates polynomials and drops zeros; storing ``1`` raises
    :class:`ContradictionError` (the paper's ``1 = 0`` termination signal).

    The per-variable occurrence lists are *persistent* state (paper
    section III-B): :meth:`add`, :meth:`remove_at`, :meth:`replace_at` and
    :meth:`replace_all` all keep them exact, so the incremental
    propagation engine never rebuilds them.  Removal is swap-remove (the
    last equation moves into the freed slot), so indices are dense but
    not stable across removals — :meth:`index_of` gives the current slot
    of a polynomial in O(1).
    """

    def __init__(self, ring: Ring, polynomials: Iterable[Poly] = ()):
        self.ring = ring
        self.state = VariableState(ring.n_vars)
        self._polys: List[Poly] = []
        self._index: Dict[Poly, int] = {}
        self._occurrence: Dict[int, Set[int]] = {}
        # Propagation-owned memo: linear-residual row sets whose GF(2)
        # echelonisation yielded no facts.  The verdict depends only on
        # the rows, so copies share (and jointly grow) the same set.
        self._linear_nofact_memo: Set[FrozenSet[Poly]] = set()
        for p in polynomials:
            self.add(p)

    # -- basic container behaviour -----------------------------------------

    @property
    def polynomials(self) -> List[Poly]:
        """Live list of the equations (treat as read-only)."""
        return self._polys

    def __len__(self) -> int:
        return len(self._polys)

    def __iter__(self):
        return iter(self._polys)

    def __contains__(self, p: Poly) -> bool:
        return p in self._index

    def index_of(self, p: Poly) -> Optional[int]:
        """Current slot of an equation, or None if it is not stored."""
        return self._index.get(p)

    def add(self, p: Poly) -> bool:
        """Add an equation.  Returns True if it was new.

        Zero polynomials are ignored; the constant ``1`` raises
        :class:`ContradictionError`.
        """
        if p.is_zero():
            return False
        if p.is_one():
            raise ContradictionError("system contains 1 = 0")
        if p in self._index:
            return False
        idx = len(self._polys)
        self._polys.append(p)
        self._index[p] = idx
        occurrence = self._occurrence
        for v in p.variables():
            self.ring.ensure(v)
            self.state.ensure(v)
            occ = occurrence.get(v)
            if occ is None:
                occurrence[v] = {idx}
            else:
                occ.add(idx)
        return True

    def remove_at(self, idx: int) -> Poly:
        """Remove the equation at ``idx`` (swap-remove); returns it.

        The last equation moves into the freed slot and the occurrence
        lists are patched incrementally, so the cost is proportional to
        the two touched equations, not the system.
        """
        polys = self._polys
        p = polys[idx]
        occurrence = self._occurrence
        for v in p.variables():
            occ = occurrence.get(v)
            if occ is not None:
                occ.discard(idx)
        del self._index[p]
        last = len(polys) - 1
        if idx != last:
            moved = polys[last]
            polys[idx] = moved
            self._index[moved] = idx
            for v in moved.variables():
                occ = occurrence[v]
                occ.discard(last)
                occ.add(idx)
        polys.pop()
        return p

    def replace_at(self, idx: int, p: Poly) -> bool:
        """Swap the equation at ``idx`` for ``p``, patching occurrences.

        Zero or already-present replacements just remove the old equation
        (dedup); the constant ``1`` raises :class:`ContradictionError`.
        Returns True if ``p`` is now stored (at ``idx``), False if the
        slot was removed instead.
        """
        if p.is_one():
            raise ContradictionError("system contains 1 = 0")
        old = self._polys[idx]
        if p is old or self._index.get(p) == idx:
            # Identical slot content (possibly a distinct equal object):
            # nothing to do — in particular this must NOT fall through to
            # the dedup removal below, which would drop the equation.
            return True
        if p.is_zero() or p in self._index:
            self.remove_at(idx)
            return False
        occurrence = self._occurrence
        old_vars = old.variables()
        new_vars = p.variables()
        for v in old_vars - new_vars:
            occ = occurrence.get(v)
            if occ is not None:
                occ.discard(idx)
        for v in new_vars - old_vars:
            self.ring.ensure(v)
            self.state.ensure(v)
            occ = occurrence.get(v)
            if occ is None:
                occurrence[v] = {idx}
            else:
                occ.add(idx)
        del self._index[old]
        self._polys[idx] = p
        self._index[p] = idx
        return True

    def occurrences(self, var: int) -> Set[int]:
        """Indices of equations in which ``var`` occurs (live view)."""
        return self._occurrence.get(var, set())

    def occurrence_count(self, var: int) -> int:
        """Number of equations mentioning ``var``."""
        return len(self._occurrence.get(var, ()))

    def replace_all(self, polynomials: Iterable[Poly]) -> None:
        """Swap in a new equation list, rebuilding occurrence lists.

        Full-system rebuild; the incremental engine edits in place via
        :meth:`replace_at`/:meth:`remove_at` instead.  Kept for callers
        that genuinely replace the whole master copy.
        """
        self._polys = []
        self._index = {}
        self._occurrence = {}
        for p in polynomials:
            self.add(p)

    # -- normalisation against the variable state ---------------------------

    def normalize(self, p: Poly) -> Poly:
        """Rewrite ``p`` under the current values and equivalence literals.

        The touched-variable screen is one bitwise AND between the
        state's touched mask and the polynomial's cached support mask —
        O(limbs) regardless of how many variables the system has — and
        only the intersection bits are walked for substitutions.
        """
        state = self.state
        hit = state._touched_mask & p.support_mask()
        if not hit:
            return p
        # State literals feed the substitution kernel directly as
        # pre-split masks — no intermediate Poly objects, no
        # re-classification, no per-call dict.
        literal_of = state.literal_of
        sub_mask = dead_mask = alias_mask = 0
        alias: Optional[Dict[int, Tuple[int, int]]] = None
        for v in mono.bits_of(hit):
            entry = literal_of(v)
            if entry is None:
                continue
            y, c = entry
            bit = 1 << v
            sub_mask |= bit
            if y is None:
                if c == 0:
                    dead_mask |= bit
            else:
                alias_mask |= bit
                if alias is None:
                    alias = {}
                alias[v] = (y, c)
        if not sub_mask:
            return p
        return p.substitute_masks(sub_mask, dead_mask, alias_mask, alias)

    def copy(self) -> "AnfSystem":
        """Deep-enough copy: fresh state/occurrence, shared immutable polys.

        Copies the internal structures directly (no per-polynomial
        re-insertion), so a scratch copy for probing costs one pass over
        the stored data rather than a full occurrence-list rebuild.
        """
        other = AnfSystem.__new__(AnfSystem)
        other.ring = self.ring.clone()
        other.state = self.state.clone()
        other._polys = list(self._polys)
        other._index = dict(self._index)
        other._occurrence = {v: set(s) for v, s in self._occurrence.items()}
        other._linear_nofact_memo = self._linear_nofact_memo
        return other

    def check_assignment(self, assignment) -> bool:
        """True if the concrete assignment satisfies every equation.

        Full 0/1 sequences covering the ring are packed once into an
        assignment mask and every equation is checked with per-monomial
        subset tests; mappings (or short sequences) take the generic
        per-variable path, preserving its KeyError/IndexError contract.
        """
        if (
            isinstance(assignment, (list, tuple))
            and len(assignment) >= self.ring.n_vars
        ):
            amask = mono.assignment_mask(assignment)
            return all(p.evaluate_mask(amask) == 0 for p in self._polys)
        return all(p.evaluate(assignment) == 0 for p in self._polys)

    def __repr__(self) -> str:
        return "AnfSystem(n_vars={}, n_eqs={})".format(
            self.ring.n_vars, len(self._polys)
        )

"""Boolean polynomials over GF(2).

A :class:`Poly` is an XOR (GF(2) sum) of monomials.  It is the reproduction
of the PolyBoRi Boolean-polynomial object the paper builds on: immutable,
hashable, with ring arithmetic in the Boolean quotient ring where
``x^2 = x`` and ``p + p = 0``.

Design notes
------------
* The internal representation is a ``frozenset`` of monomials (sorted int
  tuples, see :mod:`repro.anf.monomial`).  XOR of polynomials is then the
  symmetric difference of sets, which Python does natively and fast.  The
  monomials themselves are interned tuples shadowed by width-adaptive int
  bitmasks, so the monomial products inside :meth:`Poly.__mul__` and the
  substitution methods are single bitwise ops at any variable count —
  cipher-scale systems (hundreds to thousands of variables) included.
* ``Poly`` memoises its hash, total degree, variable support and the
  *support mask* (the OR of its monomials' bitmasks).  Degree and support
  are asked for constantly by the propagation engine, the occurrence-list
  bookkeeping in :class:`~repro.anf.system.AnfSystem` and the fact
  classifiers, so they are computed once per value object rather than per
  call; :meth:`Poly.support_mask` is what lets ``AnfSystem.normalize``
  test "does any touched variable occur here" with one bitwise AND.
  ``variables()`` returns the cached frozenset — callers must treat it as
  read-only.
* Polynomials are value objects.  All "mutation" in the rest of the code
  base (propagation, substitution, ElimLin) builds new polynomials, which
  mirrors the paper's design where only ANF propagation replaces the
  master system.  Hot loops that accumulate many XORs should use
  :class:`PolyBuilder`, which toggles monomials in one mutable set and
  materialises a single ``Poly`` at the end instead of allocating one
  intermediate ``Poly`` per step.
* Throughout the code base a polynomial always means the *equation*
  ``p = 0``, exactly as in the paper ("we use the term polynomial to mean
  polynomial equation equated to zero").
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Set, Tuple

from . import monomial as mono
from .monomial import Monomial


class Poly:
    """An immutable Boolean polynomial (XOR of monomials) over GF(2)."""

    __slots__ = ("_monomials", "_hash", "_degree", "_vars", "_smask", "_mmasks")

    def __init__(self, monomials: Iterable[Monomial] = ()):
        """Build a polynomial from monomials, cancelling pairs mod 2.

        Accepts any iterable of monomials.  Repeated monomials cancel in
        pairs, so ``Poly([(1,), (1,)])`` is the zero polynomial.
        """
        seen: Set[Monomial] = set()
        for m in monomials:
            if m in seen:
                seen.discard(m)
            else:
                seen.add(m)
        self._monomials: FrozenSet[Monomial] = frozenset(seen)
        self._hash: Optional[int] = None
        self._degree: Optional[int] = None
        self._vars: Optional[FrozenSet[int]] = None
        self._smask: Optional[int] = None
        self._mmasks: Optional[list] = None

    @staticmethod
    def _from_frozenset(monomials: FrozenSet[Monomial]) -> "Poly":
        """Internal fast constructor: monomials are already cancelled."""
        p = Poly.__new__(Poly)
        p._monomials = monomials
        p._hash = None
        p._degree = None
        p._vars = None
        p._smask = None
        p._mmasks = None
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        """The zero polynomial (the trivially true equation ``0 = 0``)."""
        return _ZERO

    @staticmethod
    def one() -> "Poly":
        """The constant ``1`` (the contradictory equation ``1 = 0``)."""
        return _ONE

    @staticmethod
    def variable(index: int) -> "Poly":
        """The polynomial consisting of the single variable ``x_index``."""
        return Poly([(index,)])

    @staticmethod
    def constant(value: int) -> "Poly":
        """``Poly.one()`` if value is odd else ``Poly.zero()``."""
        return _ONE if value & 1 else _ZERO

    @staticmethod
    def from_monomial(m: Monomial) -> "Poly":
        """A polynomial with exactly one monomial."""
        return Poly([m])

    # -- queries -----------------------------------------------------------

    @property
    def monomials(self) -> FrozenSet[Monomial]:
        """The set of monomials with coefficient 1."""
        return self._monomials

    def __len__(self) -> int:
        return len(self._monomials)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self._monomials)

    def __bool__(self) -> bool:
        return bool(self._monomials)

    def is_zero(self) -> bool:
        """True for the zero polynomial."""
        return not self._monomials

    def is_one(self) -> bool:
        """True for the constant-1 polynomial (the equation ``1 = 0``)."""
        return self._monomials == _ONE_SET

    def is_constant(self) -> bool:
        """True for 0 or 1."""
        return not self._monomials or self._monomials == _ONE_SET

    def has_constant_term(self) -> bool:
        """True if the constant monomial ``1`` appears in the sum."""
        return mono.ONE in self._monomials

    def degree(self) -> int:
        """Total degree: the largest monomial degree (0 for constants).

        Cached on first call; ``Poly`` is immutable so the value never
        goes stale.
        """
        d = self._degree
        if d is None:
            ms = self._monomials
            d = max(map(len, ms)) if ms else 0
            self._degree = d
        return d

    def variables(self) -> FrozenSet[int]:
        """The set of variable indices occurring in the polynomial.

        Cached and shared — treat the returned frozenset as read-only.
        Decoded from :meth:`support_mask`, so the two views always agree.
        """
        vs = self._vars
        if vs is None:
            vs = frozenset(mono.bits_of(self.support_mask()))
            self._vars = vs
        return vs

    def support_mask(self) -> int:
        """Bitmask union of the variable supports of all monomials.

        Bit ``v`` is set iff ``x_v`` occurs somewhere in the polynomial.
        Width-adaptive (a plain Python int), cached, and the basis for
        the O(limbs) disjointness tests in ``AnfSystem.normalize`` and
        the linear-group crawl of the propagation engine.
        """
        sm = self._smask
        if sm is None:
            pairs = self._mmasks
            if pairs is not None:
                sm = 0
                for mk, _ in pairs:
                    sm |= mk
            else:
                # Don't force the (mask, monomial) pair list into
                # existence: most polys only ever need the support OR.
                sm = 0
                mask_of = mono.mask_of
                for m in self._monomials:
                    sm |= mask_of(m)
            self._smask = sm
        return sm

    def monomial_masks(self) -> list:
        """Cached ``(mask, monomial)`` pairs, one per monomial.

        Looking a mask up through the interning table costs a tuple hash
        per call; the hot kernels (literal substitution, monomial
        products, mask evaluation) instead iterate this list and pay the
        hash once per ``Poly`` lifetime.  Treat as read-only.
        """
        pairs = self._mmasks
        if pairs is None:
            mask_of = mono.mask_of
            pairs = [(mask_of(m), m) for m in self._monomials]
            self._mmasks = pairs
        return pairs

    def is_linear(self) -> bool:
        """True if every monomial has degree at most one."""
        return self.degree() <= 1

    def leading_monomial(self) -> Monomial:
        """Largest monomial in degree-lexicographic order.

        Raises ``ValueError`` on the zero polynomial.
        """
        if not self._monomials:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self._monomials, key=mono.deglex_key)

    # -- classification of the paper's fact shapes --------------------------

    def as_unit(self) -> Optional[Tuple[int, int]]:
        """Recognise the unit facts ``x`` or ``x + 1``.

        Returns ``(variable, value)`` where value is the forced assignment
        (``x`` forces 0, ``x + 1`` forces 1), or None if not a unit.
        """
        ms = self._monomials
        if len(ms) == 1:
            (m,) = ms
            if len(m) == 1:
                return (m[0], 0)
            return None
        if len(ms) == 2 and mono.ONE in ms:
            other = next(m for m in ms if m)
            if len(other) == 1:
                return (other[0], 1)
        return None

    def as_equivalence(self) -> Optional[Tuple[int, int, int]]:
        """Recognise the equivalence facts ``x + y`` or ``x + y + 1``.

        Returns ``(x, y, c)`` meaning ``x = y ⊕ c`` with x > y, or None.
        """
        ms = self._monomials
        c = 1 if mono.ONE in ms else 0
        vs = [m for m in ms if m]
        if len(vs) != 2 or len(ms) != 2 + c:
            return None
        if any(len(m) != 1 for m in vs):
            return None
        a, b = vs[0][0], vs[1][0]
        if a < b:
            a, b = b, a
        return (a, b, c)

    def as_monomial_assignment(self) -> Optional[Monomial]:
        """Recognise the facts ``x_{i1}..x_{ip} + 1`` with p >= 1.

        These force every participating variable to 1 (paper fact type 2).
        Returns the monomial, or None.
        """
        ms = self._monomials
        if len(ms) == 2 and mono.ONE in ms:
            other = next(m for m in ms if m)
            return other
        return None

    def as_linear_equation(self) -> Optional[Tuple[Tuple[int, ...], int]]:
        """Decompose a linear polynomial as ``(variables, constant)``.

        Returns None if the polynomial is not linear.  The equation reads
        ``x_{v1} + ... + x_{vk} + c = 0``.
        """
        if not self.is_linear():
            return None
        const = 1 if mono.ONE in self._monomials else 0
        vs = tuple(sorted(m[0] for m in self._monomials if m))
        return (vs, const)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        """GF(2) addition (XOR): symmetric difference of monomial sets."""
        return Poly._from_frozenset(self._monomials ^ other._monomials)

    __xor__ = __add__
    __sub__ = __add__

    def __mul__(self, other: "Poly") -> "Poly":
        """Boolean-ring product; distributes and cancels mod 2.

        On the mask path each term is one OR of two cached monomial
        masks plus an interning lookup, at any variable width.
        """
        if not self._monomials or not other._monomials:
            return _ZERO
        acc: Set[Monomial] = set()
        toggle_in, toggle_out = acc.add, acc.discard
        from_mask = mono.from_mask
        b_pairs = other.monomial_masks()
        for ma, _ in self.monomial_masks():
            for mb, _ in b_pairs:
                m = from_mask(ma | mb)
                if m in acc:
                    toggle_out(m)
                else:
                    toggle_in(m)
        return Poly._from_frozenset(frozenset(acc))

    def mul_monomial(self, m: Monomial) -> "Poly":
        """``self * m`` for a single monomial — one pass, no nested loop.

        The workhorse of XL expansion and Buchberger reduction, where one
        operand is always a monomial; with cached bitmask monomials each
        term is a single OR plus an interning lookup.
        """
        if not self._monomials:
            return _ZERO
        if not m:
            return self
        acc: Set[Monomial] = set()
        mmask = mono.mask_of(m)
        from_mask = mono.from_mask
        for mk, _ in self.monomial_masks():
            prod = from_mask(mk | mmask)
            if prod in acc:
                acc.discard(prod)
            else:
                acc.add(prod)
        return Poly._from_frozenset(frozenset(acc))

    def add_constant(self, value: int) -> "Poly":
        """``self + value`` for value in {0, 1}."""
        if value & 1:
            return self + _ONE
        return self

    def substitute(self, var: int, replacement: "Poly") -> "Poly":
        """Replace every occurrence of ``var`` by ``replacement``.

        Used by ElimLin's variable elimination and by ANF propagation
        (with constant or single-variable replacements).

        Mask-native: one AND against the cached support mask screens the
        whole polynomial, one AND per monomial screens the term, and
        each product is a single mask OR plus an interning lookup — no
        tuple merges at any variable width.
        """
        if var < 0:
            raise ValueError("negative variable index: {}".format(var))
        bit = 1 << var
        if not self.support_mask() & bit:
            return self
        acc: Set[Monomial] = set()
        from_mask = mono.from_mask
        rep_pairs = replacement.monomial_masks()
        for mk, m in self.monomial_masks():
            if not mk & bit:
                if m in acc:
                    acc.discard(m)
                else:
                    acc.add(m)
                continue
            rest = mk & ~bit
            for rk, _ in rep_pairs:
                prod = from_mask(rest | rk)
                if prod in acc:
                    acc.discard(prod)
                else:
                    acc.add(prod)
        return Poly._from_frozenset(frozenset(acc))

    def substitute_literals(
        self, simple: Dict[int, Tuple[Optional[int], int]]
    ) -> "Poly":
        """Substitution where every replacement is ``0``, ``1``, ``y`` or
        ``y + 1`` (encoded ``(None, 0)``, ``(None, 1)``, ``(y, 0)``,
        ``(y, 1)`` — the encoding ``VariableState.literal_of`` produces).
        Each monomial rewrites to at most ``2^k`` monomials where k is
        its count of *negated* aliases — almost always 0 or 1.

        This is the propagation engine's hottest kernel, and it is
        mask-native: the substitution is pre-split into bitmasks, one
        width-adaptive AND screens each monomial (most monomials of a
        dirtied equation do not mention a substituted variable), dead
        monomials die on a second AND, and the rewritten base monomial is
        assembled by mask OR instead of list-sort.

        ``AnfSystem.normalize`` pre-splits the masks itself and calls
        :meth:`substitute_masks` directly.
        """
        sub_mask = 0  # all substituted variables
        dead_mask = 0  # -> constant 0: the monomial dies
        alias: Optional[Dict[int, Tuple[int, int]]] = None  # -> y or y + 1
        alias_mask = 0
        for v, (y, c) in simple.items():
            bit = 1 << v
            sub_mask |= bit
            if y is None:
                if c == 0:
                    dead_mask |= bit
                # constant 1: the variable simply drops out of the base
            else:
                alias_mask |= bit
                if alias is None:
                    alias = {}
                alias[v] = (y, c)
        return self.substitute_masks(sub_mask, dead_mask, alias_mask, alias)

    def substitute_masks(
        self,
        sub_mask: int,
        dead_mask: int,
        alias_mask: int,
        alias: Optional[Dict[int, Tuple[int, int]]],
    ) -> "Poly":
        """Mask-native literal substitution with the masks pre-split.

        ``sub_mask`` covers every substituted variable, ``dead_mask`` the
        ones replaced by constant 0, ``alias_mask`` the ones replaced by
        ``y`` / ``y + 1`` (with ``alias[v] = (y, parity)``); bits in
        ``sub_mask`` only are replaced by constant 1 and simply drop out.
        """
        acc: Set[Monomial] = set()
        from_mask = mono.from_mask
        for mk, m in self.monomial_masks():
            hit = mk & sub_mask
            if not hit:
                if m in acc:
                    acc.discard(m)
                else:
                    acc.add(m)
                continue
            if hit & dead_mask:
                continue
            base_mask = mk & ~sub_mask
            negated = None
            walk = hit & alias_mask
            while walk:
                low = walk & -walk
                walk ^= low
                y, c = alias[low.bit_length() - 1]
                if c == 0:
                    base_mask |= 1 << y
                else:
                    if negated is None:
                        negated = []
                    negated.append(y)
            if not negated:
                bm = from_mask(base_mask)
                if bm in acc:
                    acc.discard(bm)
                else:
                    acc.add(bm)
                continue
            # Π (y_i + 1) = Σ over subsets; empty when the product dies.
            for pmask in mono.expand_negated_mask(base_mask, negated):
                pm = from_mask(pmask)
                if pm in acc:
                    acc.discard(pm)
                else:
                    acc.add(pm)
        return Poly._from_frozenset(frozenset(acc))

    def evaluate(self, assignment) -> int:
        """Evaluate under a full assignment (mapping or sequence); 0 or 1."""
        acc = 0
        for m in self._monomials:
            acc ^= mono.evaluate(m, assignment)
        return acc

    def evaluate_mask(self, amask: int) -> int:
        """Evaluate under a packed assignment mask (see
        :func:`repro.anf.monomial.assignment_mask`); 0 or 1.

        One subset test per monomial on the interned masks — the fast
        path for sweeping a whole system against one assignment.
        """
        acc = 0
        for mk, _ in self.monomial_masks():
            if mk & amask == mk:
                acc ^= 1
        return acc

    def remap(self, var_map: Dict[int, int]) -> "Poly":
        """Rename variables through ``var_map`` (must cover all variables)."""
        return Poly(mono.make(var_map[v] for v in m) for m in self._monomials)

    # -- dunder plumbing -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._monomials == other._monomials

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._monomials)
        return self._hash

    def sorted_monomials(self) -> list:
        """Monomials in descending degree-lexicographic order (for display)."""
        return sorted(self._monomials, key=mono.deglex_key, reverse=True)

    def __repr__(self) -> str:
        return "Poly({})".format(self.to_string())

    def to_string(self, names=None) -> str:
        """Render as e.g. ``x1*x2 + x3 + 1``.

        ``names`` maps a variable index to a display name; the default is
        ``x<index>``.
        """
        if not self._monomials:
            return "0"
        parts = []
        for m in self.sorted_monomials():
            if not m:
                parts.append("1")
            elif names is None:
                parts.append("*".join("x{}".format(v) for v in m))
            else:
                parts.append("*".join(names[v] for v in m))
        return " + ".join(parts)


class PolyBuilder:
    """Mutable GF(2) accumulator for hot loops.

    Collects monomials with XOR semantics (a monomial added twice
    cancels) in one mutable set, then materialises a single :class:`Poly`.
    This avoids the per-step frozenset allocation of chained ``p + q``
    in accumulation-heavy code (see the CNF→ANF clause conversion).

    >>> b = PolyBuilder()
    >>> b.add_monomial((1,)); b.add_monomial((1,)); b.add_monomial((2,))
    >>> b.build().to_string()
    'x2'
    """

    __slots__ = ("_acc",)

    def __init__(self, start: Optional[Poly] = None):
        self._acc: Set[Monomial] = set(start._monomials) if start else set()

    def add_monomial(self, m: Monomial) -> None:
        """XOR a single monomial into the accumulator."""
        acc = self._acc
        if m in acc:
            acc.discard(m)
        else:
            acc.add(m)

    def add_poly(self, p: Poly) -> None:
        """XOR a whole polynomial into the accumulator."""
        self._acc ^= p._monomials

    def add_monomials(self, monomials: Iterable[Monomial]) -> None:
        """XOR an iterable of monomials into the accumulator."""
        add = self.add_monomial
        for m in monomials:
            add(m)

    def __len__(self) -> int:
        return len(self._acc)

    def __bool__(self) -> bool:
        return bool(self._acc)

    def is_zero(self) -> bool:
        """True if the accumulated sum is currently zero."""
        return not self._acc

    def build(self) -> Poly:
        """Materialise the accumulated sum as an immutable :class:`Poly`."""
        if not self._acc:
            return _ZERO
        return Poly._from_frozenset(frozenset(self._acc))


_ZERO = Poly()
_ONE = Poly([mono.ONE])
_ONE_SET = frozenset([mono.ONE])

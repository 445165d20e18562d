"""Boolean polynomials over GF(2).

A :class:`Poly` is an XOR (GF(2) sum) of monomials.  It is the reproduction
of the PolyBoRi Boolean-polynomial object the paper builds on: immutable,
hashable, with ring arithmetic in the Boolean quotient ring where
``x^2 = x`` and ``p + p = 0``.

Design notes
------------
* The internal representation is a ``frozenset`` of monomial *masks*
  (int bitmasks, bit ``v`` set iff ``x_v`` divides the monomial; see
  :mod:`repro.anf.monomial`).  XOR of polynomials is the symmetric
  difference of sets, which Python does natively and fast; products and
  substitutions are mask ORs; the degree is a popcount.  Every kernel
  works on the masks directly, at any variable count — cipher-scale
  systems (hundreds to thousands of variables) included.  Iterating a
  ``Poly`` yields its masks.
* Sorted variable tuples appear only at the I/O boundary: the
  constructor accepts them (canonicalising, see :meth:`Poly.__init__`),
  and the cold accessors :attr:`Poly.monomials`,
  :meth:`Poly.leading_monomial` and :meth:`Poly.sorted_monomials`
  decode on call.  No hot path calls them.
* ``Poly`` memoises its total degree, variable support and the *support
  mask* (the OR of its monomial masks).  Degree and support are asked
  for constantly by the propagation engine, the occurrence-list
  bookkeeping in :class:`~repro.anf.system.AnfSystem` and the fact
  classifiers, so they are computed once per value object rather than
  per call; :meth:`Poly.support_mask` is what lets
  ``AnfSystem.normalize`` test "does any touched variable occur here"
  with one bitwise AND.  ``variables()`` returns the cached frozenset —
  callers must treat it as read-only.
* Polynomials are value objects.  All "mutation" in the rest of the code
  base (propagation, substitution, ElimLin) builds new polynomials, which
  mirrors the paper's design where only ANF propagation replaces the
  master system.
* Throughout the code base a polynomial always means the *equation*
  ``p = 0``, exactly as in the paper ("we use the term polynomial to mean
  polynomial equation equated to zero").
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Set, Tuple

from . import monomial as mono
from .monomial import Monomial


class Poly:
    """An immutable Boolean polynomial (XOR of monomials) over GF(2)."""

    __slots__ = ("_masks", "_degree", "_vars", "_smask")

    def __init__(self, monomials: Iterable[Monomial] = ()):
        """Build a polynomial from monomials given as variable tuples.

        Each monomial is canonicalised to its mask — order and repeats
        inside a monomial do not matter (``x1*x1 = x1``) — and a negative
        variable index raises ``ValueError``.  Repeated monomials then
        cancel in pairs, so ``Poly([(1,), (1,)])`` is the zero
        polynomial.
        """
        acc: Set[int] = set()
        make = mono.make
        for m in monomials:
            mk = make(m)
            if mk in acc:
                acc.discard(mk)
            else:
                acc.add(mk)
        self._masks: FrozenSet[int] = frozenset(acc)
        self._degree: Optional[int] = None
        self._vars: Optional[FrozenSet[int]] = None
        self._smask: Optional[int] = None

    @staticmethod
    def _from_frozenset(masks: FrozenSet[int]) -> "Poly":
        """Internal fast constructor: distinct masks, already cancelled."""
        p = Poly.__new__(Poly)
        p._masks = masks
        p._degree = None
        p._vars = None
        p._smask = None
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
        """The polynomial consisting of the single variable ``x_index``.

        A negative index raises ``ValueError``.
        """
        if index < 0:
            raise ValueError("negative variable index: {}".format(index))
        return Poly._from_frozenset(frozenset((1 << index,)))

    @staticmethod
    def constant(value: int) -> "Poly":
        """``Poly.one()`` if value is odd else ``Poly.zero()``."""
        return _ONE if value & 1 else _ZERO

    @staticmethod
    def from_monomial(mask: int) -> "Poly":
        """A polynomial with exactly one monomial, given as its mask."""
        return Poly._from_frozenset(frozenset((mask,)))

    # -- queries -----------------------------------------------------------

    @property
    def masks(self) -> FrozenSet[int]:
        """The monomial masks with coefficient 1 (the representation)."""
        return self._masks

    @property
    def monomials(self) -> FrozenSet[Monomial]:
        """The monomials with coefficient 1, as variable tuples.

        Decoded on every call; kernels iterate :attr:`masks` instead.
        """
        as_tuple = mono.as_tuple
        return frozenset(as_tuple(m) for m in self._masks)

    def __len__(self) -> int:
        return len(self._masks)

    def __iter__(self) -> Iterator[int]:
        return iter(self._masks)

    def __bool__(self) -> bool:
        return bool(self._masks)

    def is_zero(self) -> bool:
        """True for the zero polynomial."""
        return not self._masks

    def is_one(self) -> bool:
        """True for the constant-1 polynomial (the equation ``1 = 0``)."""
        return self._masks == _ONE_SET

    def is_constant(self) -> bool:
        """True for 0 or 1."""
        return not self._masks or self._masks == _ONE_SET

    def has_constant_term(self) -> bool:
        """True if the constant monomial ``1`` appears in the sum."""
        return 0 in self._masks

    def degree(self) -> int:
        """Total degree: the largest monomial popcount (0 for constants).

        Cached on first call; ``Poly`` is immutable so the value never
        goes stale.
        """
        d = self._degree
        if d is None:
            ms = self._masks
            d = max(map(int.bit_count, ms)) if ms else 0
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
            sm = self._smask = reduce(or_, self._masks, 0)
        return sm

    def is_linear(self) -> bool:
        """True if every monomial has degree at most one."""
        return self.degree() <= 1

    def leading_monomial(self) -> Monomial:
        """Largest monomial in degree-lexicographic order, as a tuple.

        Raises ``ValueError`` on the zero polynomial.
        """
        if not self._masks:
            raise ValueError("zero polynomial has no leading monomial")
        return mono.as_tuple(min(self._masks, key=mono.deglex_desc_key))

    # -- classification of the paper's fact shapes --------------------------

    def as_unit(self) -> Optional[Tuple[int, int]]:
        """Recognise the unit facts ``x`` or ``x + 1``.

        Returns ``(variable, value)`` where value is the forced assignment
        (``x`` forces 0, ``x + 1`` forces 1), or None if not a unit.
        """
        ms = self._masks
        n = len(ms)
        if n == 1:
            (m,) = ms
            if m and not m & (m - 1):
                return (m.bit_length() - 1, 0)
            return None
        if n == 2 and 0 in ms:
            for m in ms:
                if m and not m & (m - 1):
                    return (m.bit_length() - 1, 1)
        return None

    def as_equivalence(self) -> Optional[Tuple[int, int, int]]:
        """Recognise the equivalence facts ``x + y`` or ``x + y + 1``.

        Returns ``(x, y, c)`` meaning ``x = y ⊕ c`` with x > y, or None.
        """
        ms = self._masks
        c = 1 if 0 in ms else 0
        if len(ms) != 2 + c:
            return None
        vs = [m for m in ms if m]
        a, b = vs
        if a & (a - 1) or b & (b - 1):
            return None
        a, b = a.bit_length() - 1, b.bit_length() - 1
        if a < b:
            a, b = b, a
        return (a, b, c)

    def as_monomial_assignment(self) -> Optional[Monomial]:
        """Recognise the facts ``x_{i1}..x_{ip} + 1`` with p >= 1.

        These force every participating variable to 1 (paper fact type 2).
        Returns the monomial as a variable tuple, or None.
        """
        ms = self._masks
        if len(ms) == 2 and 0 in ms:
            for m in ms:
                if m:
                    return mono.as_tuple(m)
        return None

    def as_linear_equation(self) -> Optional[Tuple[Tuple[int, ...], int]]:
        """Decompose a linear polynomial as ``(variables, constant)``.

        Returns None if the polynomial is not linear.  The equation reads
        ``x_{v1} + ... + x_{vk} + c = 0``.
        """
        if not self.is_linear():
            return None
        ms = self._masks
        const = 1 if 0 in ms else 0
        vs = tuple(sorted(m.bit_length() - 1 for m in ms if m))
        return (vs, const)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        """GF(2) addition (XOR): symmetric difference of monomial sets."""
        return Poly._from_frozenset(self._masks ^ other._masks)

    __xor__ = __add__
    __sub__ = __add__

    def __mul__(self, other: "Poly") -> "Poly":
        """Boolean-ring product; distributes and cancels mod 2.

        Each term is one OR of two monomial masks, at any variable width.
        """
        if not self._masks or not other._masks:
            return _ZERO
        acc: Set[int] = set()
        toggle_in, toggle_out = acc.add, acc.discard
        b_masks = other._masks
        for ma in self._masks:
            for mb in b_masks:
                m = ma | mb
                if m in acc:
                    toggle_out(m)
                else:
                    toggle_in(m)
        return Poly._from_frozenset(frozenset(acc))

    def mul_monomial(self, mask: int) -> "Poly":
        """``self * m`` for a single monomial mask — one pass, no nested
        loop.

        The workhorse of XL expansion and Buchberger reduction, where one
        operand is always a monomial; each term is a single OR.
        """
        if not self._masks:
            return _ZERO
        if not mask:
            return self
        acc: Set[int] = set()
        for mk in self._masks:
            prod = mk | mask
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
        each product is a single mask OR at any variable width.
        """
        if var < 0:
            raise ValueError("negative variable index: {}".format(var))
        bit = 1 << var
        if not self.support_mask() & bit:
            return self
        acc: Set[int] = set()
        rep_masks = replacement._masks
        for mk in self._masks:
            if not mk & bit:
                if mk in acc:
                    acc.discard(mk)
                else:
                    acc.add(mk)
                continue
            rest = mk & ~bit
            for rk in rep_masks:
                prod = rest | rk
                if prod in acc:
                    acc.discard(prod)
                else:
                    acc.add(prod)
        return Poly._from_frozenset(frozenset(acc))

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

        This is the propagation engine's hottest kernel
        (:meth:`AnfSystem.normalize` splits the masks): one AND screens
        each monomial, dead monomials die on a second AND, and the
        rewritten base is assembled by mask OR.  A monomial rewrites to
        at most ``2^k`` monomials, k its count of negated aliases.
        """
        acc: Set[int] = set()
        for mk in self._masks:
            hit = mk & sub_mask
            if not hit:
                if mk in acc:
                    acc.discard(mk)
                else:
                    acc.add(mk)
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
                if base_mask in acc:
                    acc.discard(base_mask)
                else:
                    acc.add(base_mask)
                continue
            # Π (y_i + 1) = Σ over subsets; empty when the product dies.
            for pmask in mono.expand_negated_mask(base_mask, negated):
                if pmask in acc:
                    acc.discard(pmask)
                else:
                    acc.add(pmask)
        return Poly._from_frozenset(frozenset(acc))

    def evaluate(self, assignment) -> int:
        """Evaluate under a full assignment (mapping or sequence); 0 or 1."""
        acc = 0
        for mk in self._masks:
            while mk:
                low = mk & -mk
                if not assignment[low.bit_length() - 1]:
                    break
                mk ^= low
            else:
                acc ^= 1
        return acc

    def evaluate_mask(self, amask: int) -> int:
        """Evaluate under a packed assignment mask (see
        :func:`repro.anf.monomial.assignment_mask`); 0 or 1.

        One subset test per monomial mask — the fast path for sweeping a
        whole system against one assignment.
        """
        acc = 0
        for mk in self._masks:
            if mk & amask == mk:
                acc ^= 1
        return acc

    def remap(self, var_map: Dict[int, int]) -> "Poly":
        """Rename variables through ``var_map`` (must cover all variables)."""
        return Poly(
            [var_map[v] for v in mono.bits_of(mk)] for mk in self._masks
        )

    # -- dunder plumbing -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._masks == other._masks

    def __hash__(self) -> int:
        # A frozenset caches its own hash.
        return hash(self._masks)

    def sorted_monomials(self) -> list:
        """Monomial tuples in descending degree-lexicographic order (for
        display)."""
        return [
            mono.as_tuple(m)
            for m in sorted(self._masks, key=mono.deglex_desc_key)
        ]

    def __repr__(self) -> str:
        return "Poly({})".format(self.to_string())

    def to_string(self, names=None) -> str:
        """Render as e.g. ``x1*x2 + x3 + 1``.

        ``names`` maps a variable index to a display name; the default is
        ``x<index>``.
        """
        if not self._masks:
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


_ZERO = Poly()
_ONE_SET = frozenset([mono.ONE])
_ONE = Poly._from_frozenset(_ONE_SET)

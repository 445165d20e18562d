"""Monomials of Boolean polynomials.

A monomial is a product of distinct Boolean variables.  Because we work in
the Boolean quotient ring GF(2)[x1..xn] / (x_i^2 + x_i), exponents never
exceed one, so a monomial is fully described by the *set* of variables it
contains.  The public representation is a sorted tuple of variable
indices; the empty tuple is the constant monomial ``1``.

Tuples (rather than frozensets) keep a total order for free, which gives
us deterministic iteration and a ready-made degree-lexicographic
comparison for the Groebner-basis code.

Width-adaptive bitmask representation
-------------------------------------
Every monomial is shadowed by an int bitmask (bit ``v`` set iff ``x_v``
divides the monomial), and the hot operations — :func:`mul`,
:func:`divides`, :func:`lcm`, :func:`remove` — are single bitwise ops on
those masks **at any width**.  There is no variable-count ceiling: masks
for systems of at most :data:`LIMB_BITS` variables fit one machine word
(CPython's small-int fast path), and wider systems transparently become
multi-limb big ints whose bitwise ops are branch-free C loops over
:data:`LIMB_BITS`-bit limbs.  The limb stride is the same 64-bit packed
word layout :class:`~repro.gf2.matrix.GF2Matrix` uses; :func:`mask_words`
/ :func:`mask_from_words` convert between the two without re-encoding
bit by bit.

Invariants (the width-adaptive contract):

* ``mask_of`` is *total* on valid monomials — every tuple of
  non-negative variable indices has a mask, and a negative index raises
  ``ValueError`` (:func:`make`, :func:`mask_of`, :func:`intern`,
  :func:`remove`).
* The mask path is the only path: cipher-scale systems (hundreds to
  thousands of variables) ride the bitwise ops end to end.  The
  historical sorted-tuple merges live with the tests as differential
  oracles (``tests/oracles/monomial.py``).

Masks and their tuples are *interned*: :func:`make`, :func:`mul` and
friends return a canonical tuple object per distinct monomial, so hot
loops that rebuild the same monomials (propagation, XL expansion,
substitution) hit the cache instead of re-sorting and re-allocating.
Interning is an optimisation only — raw tuples built elsewhere compare
equal to interned ones and may be passed to every function here.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

Monomial = Tuple[int, ...]

#: The constant monomial ``1`` (the product of zero variables).
ONE: Monomial = ()

#: The limb stride of the mask encoding: masks are little-endian arrays
#: of 64-bit words (CPython big ints expose exactly this through
#: :func:`mask_words`), matching ``gf2.matrix``'s packed ``uint64`` rows.
LIMB_BITS = 64

# Interning tables.  ``_mask_of`` maps a (canonical or raw) tuple to its
# bitmask; ``_tuple_of`` maps a bitmask back to the canonical tuple.
# Both grow with the distinct monomials actually seen, which in practice
# is bounded by the XL column count — tens of thousands, not millions.
_mask_of: Dict[Monomial, int] = {ONE: 0}
_tuple_of: Dict[int, Monomial] = {0: ONE}

#: Clear the interning tables when they pass this many entries.  The
#: tables are pure caches, so clearing only costs re-interning; the cap
#: keeps long experiment sweeps (many instances per process) bounded.
_INTERN_CAP = 1 << 20

def _check_var(v: int) -> None:
    if v < 0:
        raise ValueError("negative variable index: {}".format(v))


def _tuple_from_mask(mask: int) -> Monomial:
    """Decode a bitmask into the canonical sorted tuple, interning it."""
    cached = _tuple_of.get(mask)
    if cached is not None:
        return cached
    t = tuple(bits_of(mask))
    if len(_mask_of) > _INTERN_CAP:
        _mask_of.clear()
        _tuple_of.clear()
        _mask_of[ONE] = 0
        _tuple_of[0] = ONE
    _tuple_of[mask] = t
    _mask_of[t] = mask
    return t


def bits_of(mask: int) -> List[int]:
    """The set-bit indices of a mask, ascending (inverse of OR-ing
    ``1 << v``).  Works at any width."""
    out: List[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(m: Monomial) -> int:
    """The bitmask shadow of ``m`` — total at any width.

    Exposed for the propagation engine, the support-mask caches on
    :class:`~repro.anf.polynomial.Poly` and tests; most callers should
    use the arithmetic helpers, which consult the cache themselves.
    Raises ``ValueError`` on a negative variable index.
    """
    cached = _mask_of.get(m)
    if cached is not None:
        return cached
    mask = 0
    for v in m:
        if v < 0:
            _check_var(v)
        mask |= 1 << v
    if len(_mask_of) > _INTERN_CAP:
        _mask_of.clear()
        _tuple_of.clear()
        _mask_of[ONE] = 0
        _tuple_of[0] = ONE
    _mask_of[m] = mask
    return mask


def from_mask(mask: int) -> Monomial:
    """The canonical tuple for a bitmask (inverse of :func:`mask_of`)."""
    if mask < 0:
        raise ValueError("mask must be non-negative")
    return _tuple_from_mask(mask)


def mask_words(mask: int, n_words: int = 0) -> List[int]:
    """Split a mask into little-endian :data:`LIMB_BITS`-bit limbs.

    The layout matches one packed row of
    :class:`~repro.gf2.matrix.GF2Matrix` (``uint64`` words, bit ``j`` of
    word ``w`` = variable ``64*w + j``).  ``n_words`` pads (or checks)
    the length; 0 means "just enough words".
    """
    if mask < 0:
        raise ValueError("mask must be non-negative")
    need = max(1, -(-mask.bit_length() // LIMB_BITS))
    if n_words:
        if need > n_words:
            raise ValueError(
                "mask needs {} words, got n_words={}".format(need, n_words)
            )
        need = n_words
    word = (1 << LIMB_BITS) - 1
    out = []
    for _ in range(need):
        out.append(mask & word)
        mask >>= LIMB_BITS
    return out


def mask_from_words(words: Iterable[int]) -> int:
    """Reassemble a mask from little-endian limbs (inverse of
    :func:`mask_words`)."""
    mask = 0
    for i, w in enumerate(words):
        if not 0 <= w < (1 << LIMB_BITS):
            raise ValueError("word {} out of range".format(i))
        mask |= w << (i * LIMB_BITS)
    return mask


def compress_mask(mask: int, support_mask: int) -> int:
    """Compress ``mask`` onto the set-bit positions of ``support_mask``.

    A pure-Python PEXT: bit ``i`` of the result is the bit of ``mask``
    at the position of the i-th set bit (ascending) of ``support_mask``.
    ``mask`` must be a subset of ``support_mask``.  This is the
    order-preserving renaming ``support[i] -> i`` on masks, the basis of
    the ANF→CNF layer's canonical *shape keys*: two short polynomials
    whose term masks compress to the same local masks are identical up
    to that renaming and share one Karnaugh minimisation.
    """
    if mask & ~support_mask:
        raise ValueError("mask is not a subset of the support mask")
    out = 0
    i = 0
    walk = support_mask
    while walk:
        low = walk & -walk
        walk ^= low
        if mask & low:
            out |= 1 << i
        i += 1
    return out


def shape_key(masks: Iterable[int], support_mask: int, rhs: int) -> tuple:
    """Canonical shape of a short polynomial chunk: the sorted tuple of
    support-compressed term masks plus the constant.

    Chunks with equal keys are the same Boolean function up to the
    order-preserving variable renaming of :func:`compress_mask`, so one
    minimised cube cover (in local-index space) serves all of them.
    """
    return (
        support_mask.bit_count(),
        tuple(sorted(compress_mask(mk, support_mask) for mk in masks)),
        rhs & 1,
    )


def assignment_mask(assignment: Sequence[int]) -> int:
    """Pack a 0/1 assignment sequence into a mask (bit ``v`` = value of
    ``x_v``), for the mask-based evaluation fast path."""
    mask = 0
    for v, val in enumerate(assignment):
        if val:
            mask |= 1 << v
    return mask


def intern(m: Monomial) -> Monomial:
    """The canonical shared tuple equal to ``m`` (identity-stable)."""
    return _tuple_from_mask(mask_of(m))


def make(variables: Iterable[int]) -> Monomial:
    """Build a monomial from an iterable of variable indices.

    Duplicates collapse (``x * x = x`` in the Boolean ring) and the result
    is sorted so equal monomials compare equal.  A negative index raises
    ``ValueError``.

    >>> make([3, 1, 3])
    (1, 3)
    """
    mask = 0
    for v in variables:
        if v < 0:
            _check_var(v)
        mask |= 1 << v
    return _tuple_from_mask(mask)


def degree(m: Monomial) -> int:
    """Number of variables in the monomial; the constant ``1`` has degree 0."""
    return len(m)


def mul(a: Monomial, b: Monomial) -> Monomial:
    """Product of two monomials (variable-set union): one OR on masks.

    >>> mul((1, 2), (2, 3))
    (1, 2, 3)
    """
    if not a:
        return b
    if not b:
        return a
    return _tuple_from_mask(mask_of(a) | mask_of(b))


def contains(m: Monomial, var: int) -> bool:
    """True if ``var`` divides the monomial."""
    return var in m


def divides(a: Monomial, b: Monomial) -> bool:
    """True if monomial ``a`` divides monomial ``b`` (subset of variables):
    ``a & b == a`` on masks."""
    if len(a) > len(b):
        return False
    ma = mask_of(a)
    return ma & mask_of(b) == ma


def remove(m: Monomial, var: int) -> Monomial:
    """The monomial with ``var`` divided out; ``m`` must contain ``var``."""
    _check_var(var)
    return _tuple_from_mask(mask_of(m) & ~(1 << var))


def lcm(a: Monomial, b: Monomial) -> Monomial:
    """Least common multiple (same as the product in a Boolean ring)."""
    return mul(a, b)


def expand_negated_mask(base_mask: int, negated: Iterable[int]) -> List[int]:
    """Monomial masks of ``base * Π_y (x_y + 1)`` in the Boolean ring.

    Each negated factor doubles the list with one OR per entry (the
    subset expansion); the result is empty when some ``y`` already
    divides the base (``y * (y + 1) = 0``).  Shared by literal
    substitution and the CNF clause conversion.  Works at any width.
    """
    out = [base_mask]
    for y in set(negated):
        bit = 1 << y
        if base_mask & bit:
            return []
        out += [m | bit for m in out]
    return out


def evaluate(m: Monomial, assignment) -> int:
    """Evaluate the monomial under a variable assignment.

    ``assignment`` may be a mapping or a sequence indexed by variable.
    Returns 0 or 1.  For many evaluations against one fixed assignment,
    pack it once with :func:`assignment_mask` and use
    :func:`evaluate_mask` instead.
    """
    for v in m:
        if not assignment[v]:
            return 0
    return 1


def evaluate_mask(mask: int, amask: int) -> int:
    """Evaluate a monomial *mask* under a packed assignment mask.

    The monomial is 1 exactly when all its variables are — i.e. its mask
    is a subset of the assignment mask.
    """
    return 1 if mask & amask == mask else 0


def deglex_key(m: Monomial):
    """Sort key for degree-lexicographic monomial order (used by Buchberger).

    The key is the canonical tuple itself prefixed by its degree; tuple
    comparison is a C-level loop, and for equal-degree monomials numeric
    mask order does *not* agree with deglex, so the tuple stays the
    canonical comparison object at every width.
    """
    return (len(m), m)

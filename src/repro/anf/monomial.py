"""Monomials of Boolean polynomials, as int bitmasks.

A monomial is a product of distinct Boolean variables.  Because we work in
the Boolean quotient ring GF(2)[x1..xn] / (x_i^2 + x_i), exponents never
exceed one, so a monomial is fully described by the *set* of variables it
contains.  That set is an int bitmask: bit ``v`` is set iff ``x_v``
divides the monomial, and the mask ``0`` is the constant monomial ``1``
(:data:`ONE`).

The ring operations are single bitwise ops at any width: the product (and
the lcm) of two monomials is ``a | b``, ``a`` divides ``b`` iff
``a & b == a``, dividing out ``x_v`` is ``m & ~(1 << v)``, and the degree
is ``m.bit_count()``.  There is no variable-count ceiling: masks for
systems of at most :data:`LIMB_BITS` variables fit one machine word
(CPython's small-int fast path), and wider systems transparently become
multi-limb big ints whose bitwise ops are branch-free C loops over
:data:`LIMB_BITS`-bit limbs.  The limb stride is the same 64-bit packed
word layout :class:`~repro.gf2.matrix.GF2Matrix` uses.

Sorted variable tuples (:data:`Monomial`) appear only at the I/O
boundary — the parser, printing, the tuple-accepting ``Poly``
constructor — through :func:`make` and :func:`as_tuple`.  The historical
sorted-tuple merges live with the tests as differential oracles
(``tests/oracles/monomial.py``).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

#: The I/O-boundary form of a monomial: its sorted variable indices.
Monomial = Tuple[int, ...]

#: The constant monomial ``1`` (the product of zero variables).
ONE = 0

#: The limb stride of the mask encoding: masks are little-endian arrays
#: of 64-bit words, matching ``gf2.matrix``'s packed ``uint64`` rows.
LIMB_BITS = 64


def make(variables: Iterable[int]) -> int:
    """The mask of the monomial over ``variables``.

    Duplicates collapse (``x * x = x`` in the Boolean ring) and order is
    irrelevant, so equal monomials get equal masks.  A negative index
    raises ``ValueError``.

    >>> make([3, 1, 3])
    10
    """
    mask = 0
    for v in variables:
        if v < 0:
            raise ValueError("negative variable index: {}".format(v))
        mask |= 1 << v
    return mask


def bits_of(mask: int) -> List[int]:
    """The set-bit indices of a mask, ascending (inverse of OR-ing
    ``1 << v``).  Works at any width."""
    out: List[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def as_tuple(mask: int) -> Monomial:
    """The sorted variable tuple of a monomial mask (inverse of
    :func:`make`), for printing and the other I/O-boundary callers."""
    if mask < 0:
        raise ValueError("mask must be non-negative")
    return tuple(bits_of(mask))


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


def expand_negated_mask(base_mask: int, negated: Iterable[int]) -> List[int]:
    """Monomial masks of ``base * Π_y (x_y + 1)`` in the Boolean ring.

    Each negated factor doubles the list with one OR per entry (the
    subset expansion); the result is empty when some ``y`` already
    divides the base (``y * (y + 1) = 0``).  The masks are distinct.
    Shared by literal substitution and the CNF clause conversion.  Works
    at any width.
    """
    out = [base_mask]
    for y in set(negated):
        bit = 1 << y
        if base_mask & bit:
            return []
        out += [m | bit for m in out]
    return out


def deglex_desc_key(mask: int):
    """Mask-native sort key for *descending* degree-lexicographic order.

    Sorting masks ascending by this key lists them exactly as sorting
    their variable tuples by ``(len(m), m)`` with ``reverse=True``;
    ``reverse=True`` here gives ascending deglex.  Higher degree sorts
    first (the negated popcount); within one degree the bits are read
    from variable 0 upwards, so the tuple with the larger first
    differing variable sorts first.  No tuple is decoded.
    """
    return (-mask.bit_count(), bin(mask)[:1:-1])

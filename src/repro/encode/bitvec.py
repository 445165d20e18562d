"""Traced bit-vector operations for cipher encoders.

Vectors are little-endian lists of :class:`~repro.encode.builder.TracedBit`
(index 0 is the least significant bit).  Rotations, shifts, XOR and the
modular adder used by SHA-256 all live here.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .builder import SystemBuilder, TracedBit

BitVector = List[TracedBit]


def const_vector(value: int, width: int) -> BitVector:
    """A vector of constants from an integer (little-endian)."""
    return [TracedBit.const((value >> i) & 1) for i in range(width)]


def to_int(bits: Sequence[TracedBit]) -> int:
    """Concrete (witness) value of the vector."""
    out = 0
    for i, b in enumerate(bits):
        out |= (b.value & 1) << i
    return out


def xor_vec(a: Sequence[TracedBit], b: Sequence[TracedBit]) -> BitVector:
    """Bitwise XOR."""
    if len(a) != len(b):
        raise ValueError("width mismatch")
    return [x ^ y for x, y in zip(a, b)]


def and_vec(a: Sequence[TracedBit], b: Sequence[TracedBit]) -> BitVector:
    """Bitwise AND (polynomial product, no auxiliary variables)."""
    if len(a) != len(b):
        raise ValueError("width mismatch")
    return [x & y for x, y in zip(a, b)]


def rotl(a: Sequence[TracedBit], k: int) -> BitVector:
    """Rotate left by k (toward the MSB) on a little-endian vector."""
    n = len(a)
    k %= n
    return [a[(i - k) % n] for i in range(n)]


def rotr(a: Sequence[TracedBit], k: int) -> BitVector:
    """Rotate right by k."""
    return rotl(a, -k)


def shr(a: Sequence[TracedBit], k: int) -> BitVector:
    """Logical shift right by k (zero fill at the MSB end)."""
    n = len(a)
    out = []
    for i in range(n):
        src = i + k
        out.append(a[src] if src < n else TracedBit.const(0))
    return out


def adder(
    builder: SystemBuilder,
    a: Sequence[TracedBit],
    b: Sequence[TracedBit],
    name: Optional[str] = None,
) -> BitVector:
    """Ripple-carry modular addition with auxiliary carry variables.

    Fresh variables are introduced for each sum and carry bit, keeping
    every equation at degree ≤ 2 regardless of chaining depth — the same
    trick the cgen SHA-256 encoding (used for the paper's Bitcoin
    benchmarks) relies on.
    """
    if len(a) != len(b):
        raise ValueError("width mismatch")
    n = len(a)
    out: BitVector = []
    carry = TracedBit.const(0)
    for i in range(n):
        ai, bi = a[i], b[i]
        s_expr = ai ^ bi ^ carry
        if s_expr.is_constant():
            out.append(s_expr)
        else:
            out.append(builder.define(s_expr, None if name is None else "{}_s{}".format(name, i)))
        if i + 1 < n:
            c_expr = (ai & bi) ^ (ai & carry) ^ (bi & carry)
            if c_expr.is_constant():
                carry = c_expr
            else:
                carry = builder.define(c_expr, None if name is None else "{}_c{}".format(name, i + 1))
    return out


def add_many(
    builder: SystemBuilder,
    vectors: Sequence[Sequence[TracedBit]],
    name: Optional[str] = None,
) -> BitVector:
    """Sum several vectors modulo ``2**width``."""
    acc = list(vectors[0])
    for idx, v in enumerate(vectors[1:]):
        acc = adder(builder, acc, v, None if name is None else "{}_{}".format(name, idx))
    return acc


def constrain_vector(builder: SystemBuilder, bits: Sequence[TracedBit], value: int) -> None:
    """Constrain a whole vector to a known integer."""
    for i, b in enumerate(bits):
        builder.constrain(b, (value >> i) & 1)

"""Symbolic tracing toolkit used by the cipher → ANF encoders."""

from .bitvec import (
    BitVector,
    add_many,
    adder,
    and_vec,
    const_vector,
    constrain_vector,
    rotl,
    rotr,
    shr,
    to_int,
    xor_vec,
)
from .builder import SystemBuilder, TracedBit

__all__ = [
    "SystemBuilder",
    "TracedBit",
    "BitVector",
    "const_vector",
    "to_int",
    "xor_vec",
    "and_vec",
    "rotl",
    "rotr",
    "shr",
    "adder",
    "add_many",
    "constrain_vector",
]

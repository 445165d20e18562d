"""Bit-packed GF(2) linear algebra (Method-of-Four-Russians kernel).

:func:`eliminate` is the one elimination kernel API — every consumer
(linearize/elimlin/xl/propagation/xorengine and the derived matrix
paths ``rref``/``rank``) reduces through it.
"""

from .elimination import choose_block_size, eliminate
from .matrix import GF2Matrix

__all__ = ["GF2Matrix", "eliminate", "choose_block_size"]

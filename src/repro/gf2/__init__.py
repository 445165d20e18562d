"""Bit-packed GF(2) linear algebra (Method-of-Four-Russians kernel).

:func:`eliminate` is the one elimination kernel API — every consumer
(linearize/elimlin/xl/propagation/xorengine and the derived matrix
paths ``rank``/``solve_affine``/``kernel_basis``/``rref_rows``) reduces
through it.
"""

from .elimination import choose_block_size, eliminate
from .matrix import GF2Matrix, rref_rows

__all__ = ["GF2Matrix", "rref_rows", "eliminate", "choose_block_size"]

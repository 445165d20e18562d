"""GF(2^e) finite-field arithmetic, concrete and symbolic.

Used by the small-scale AES family SR(n, r, c, e).  Elements are integers
whose bits are the coefficients of the field polynomial (bit 0 = constant
term).  The symbolic variant operates on vectors of Boolean polynomials,
which is what lets the S-box inversion be encoded with the quadratic
relations ``u²v = u`` and ``uv² = v``.
"""

from __future__ import annotations

from typing import List, Sequence

from ..anf.polynomial import Poly

#: Standard irreducible moduli: x^4 + x + 1 and the AES polynomial
#: x^8 + x^4 + x^3 + x + 1.
MODULUS = {4: 0b10011, 8: 0b100011011}


class GF2e:
    """The field GF(2^e) for e in {4, 8} (or any e with a given modulus)."""

    def __init__(self, e: int, modulus: int = 0):
        self.e = e
        self.modulus = modulus or MODULUS[e]
        if self.modulus >> e != 1:
            raise ValueError("modulus degree must equal e")
        self.size = 1 << e
        # Reduction table: x^k mod modulus for k up to 2e-2, as bitmasks.
        self._red: List[int] = []
        for k in range(2 * e - 1):
            v = 1 << k
            for bit in range(2 * e - 2, e - 1, -1):
                if v >> bit & 1:
                    v ^= self.modulus << (bit - e)
            self._red.append(v)

    # -- concrete arithmetic ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        """Field product of two elements."""
        acc = 0
        for i in range(self.e):
            if a >> i & 1:
                acc ^= b << i
        # Reduce.
        for bit in range(2 * self.e - 2, self.e - 1, -1):
            if acc >> bit & 1:
                acc ^= self.modulus << (bit - self.e)
        return acc

    def pow(self, a: int, k: int) -> int:
        acc = 1
        base = a
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def inverse(self, a: int) -> int:
        """Multiplicative inverse, with the AES convention inverse(0) = 0."""
        if a == 0:
            return 0
        return self.pow(a, self.size - 2)

    # -- symbolic arithmetic -----------------------------------------------------

    def sym_mul(self, a: Sequence[Poly], b: Sequence[Poly]) -> List[Poly]:
        """Product of two symbolic elements (vectors of e polynomials)."""
        e = self.e
        out = [Poly.zero() for _ in range(e)]
        for i in range(e):
            if a[i].is_zero():
                continue
            for j in range(e):
                if b[j].is_zero():
                    continue
                prod = a[i] * b[j]
                if prod.is_zero():
                    continue
                red = self._red[i + j]
                for k in range(e):
                    if red >> k & 1:
                        out[k] = out[k] + prod
        return out

    def sym_square(self, a: Sequence[Poly]) -> List[Poly]:
        """Symbolic squaring — linear over GF(2): x_i² lands on x^(2i)."""
        e = self.e
        out = [Poly.zero() for _ in range(e)]
        for i in range(e):
            if a[i].is_zero():
                continue
            red = self._red[2 * i]
            for k in range(e):
                if red >> k & 1:
                    out[k] = out[k] + a[i]
        return out

    def sym_scale(self, a: Sequence[Poly], c: int) -> List[Poly]:
        """Multiply a symbolic element by a field constant."""
        e = self.e
        out = [Poly.zero() for _ in range(e)]
        for i in range(e):
            if a[i].is_zero():
                continue
            scaled = self.mul(1 << i, c)
            for k in range(e):
                if scaled >> k & 1:
                    out[k] = out[k] + a[i]
        return out

    def sym_add(self, a: Sequence[Poly], b: Sequence[Poly]) -> List[Poly]:
        """Symbolic field addition (bitwise XOR)."""
        return [x + y for x, y in zip(a, b)]

    def sym_const(self, value: int) -> List[Poly]:
        """Embed a constant element symbolically."""
        return [Poly.constant(value >> i & 1) for i in range(self.e)]

    def element_to_bits(self, a: int) -> List[int]:
        """Little-endian bit list of an element."""
        return [(a >> i) & 1 for i in range(self.e)]


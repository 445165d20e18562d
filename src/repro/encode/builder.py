"""Symbolic system builder for cipher → ANF encodings.

The cipher encoders (AES-small, Simon, SHA-256) trace a computation twice
at once: symbolically, as Boolean polynomials over problem variables, and
concretely, over a witness assignment.  The concrete half lets an
instance generator simulate the cipher to produce consistent
plaintext/ciphertext pairs, and gives every generated ANF a built-in
sanity check (the witness must satisfy all equations).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..anf.monomial import assignment_mask
from ..anf.polynomial import Poly
from ..anf.ring import Ring

#: Term count beyond which :meth:`SystemBuilder.define_if_deep` names an
#: expression (Speck's round state).
DEEP_TERMS = 6


class TracedBit:
    """A Boolean value carried both symbolically and concretely."""

    __slots__ = ("poly", "value")

    def __init__(self, poly: Poly, value: int):
        self.poly = poly
        self.value = value & 1

    @staticmethod
    def const(value: int) -> "TracedBit":
        return TracedBit(Poly.constant(value), value)

    def __xor__(self, other: "TracedBit") -> "TracedBit":
        return TracedBit(self.poly + other.poly, self.value ^ other.value)

    def __and__(self, other: "TracedBit") -> "TracedBit":
        return TracedBit(self.poly * other.poly, self.value & other.value)

    def __invert__(self) -> "TracedBit":
        return TracedBit(self.poly + Poly.one(), self.value ^ 1)

    def is_constant(self) -> bool:
        return self.poly.is_constant()

    def __repr__(self) -> str:
        return "TracedBit({}, {})".format(self.poly.to_string(), self.value)


class SystemBuilder:
    """Accumulates variables, equations and the concrete witness."""

    def __init__(self, ring: Optional[Ring] = None):
        self.ring = ring or Ring()
        self.equations: List[Poly] = []
        self.witness: Dict[int, int] = {}

    # -- variables -------------------------------------------------------------

    def new_bit(self, value: int, name: Optional[str] = None) -> TracedBit:
        """A fresh *unknown* variable whose witness value is ``value``."""
        var = self.ring.new_variable(name)
        self.witness[var] = value & 1
        return TracedBit(Poly.variable(var), value)

    def new_bits(self, values: Sequence[int], prefix: Optional[str] = None) -> List[TracedBit]:
        """A vector of fresh variables with the given witness values."""
        out = []
        for i, v in enumerate(values):
            name = None if prefix is None else "{}_{}".format(prefix, i)
            out.append(self.new_bit(v, name))
        return out

    # -- equations -------------------------------------------------------------

    def add_equation(self, poly: Poly) -> None:
        """Assert ``poly = 0``."""
        if not poly.is_zero():
            self.equations.append(poly)

    def constrain(self, bit: TracedBit, value: int) -> None:
        """Assert that the traced bit equals a known constant.

        The witness must agree — a mismatch means the encoder and the
        concrete simulation diverged, which is a bug.
        """
        if bit.value != (value & 1):
            raise AssertionError("witness disagrees with constraint")
        self.add_equation(bit.poly.add_constant(value))

    def define(self, bit: TracedBit, name: Optional[str] = None) -> TracedBit:
        """Introduce a fresh variable equal to the traced expression.

        Adds ``y + expr = 0`` and returns the new single-variable bit.
        Used to cap polynomial degree in iterated constructions (adder
        carries, S-box outputs, round states).
        """
        fresh = self.new_bit(bit.value, name)
        self.add_equation(fresh.poly + bit.poly)
        return fresh

    def define_if_deep(self, bit: TracedBit) -> TracedBit:
        """Define a fresh variable only when the expression has more than
        :data:`DEEP_TERMS` terms."""
        if len(bit.poly) > DEEP_TERMS:
            return self.define(bit)
        return bit

    # -- checks ------------------------------------------------------------------

    def witness_assignment(self) -> List[int]:
        """Concrete values for all variables (0 for untracked)."""
        out = [0] * self.ring.n_vars
        for var, val in self.witness.items():
            out[var] = val
        return out

    def check_witness(self) -> bool:
        """True if the witness satisfies every generated equation."""
        amask = assignment_mask(self.witness_assignment())
        return all(p.evaluate_mask(amask) == 0 for p in self.equations)

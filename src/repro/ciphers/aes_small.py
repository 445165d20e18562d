"""Small-scale AES variants SR(n, r, c, e) (Cid–Murphy–Robshaw, FSE 2005).

The paper's first ANF benchmark family: 1-round SR(1, 4, 4, 8) instances
generated from random plaintext/key pairs.  SR(n, r, c, e) is AES scaled
down to ``n`` rounds over an ``r x c`` state of GF(2^e) elements; the
full-size cipher SR(10, 4, 4, 8) is AES-128 itself (up to the final-round
MixColumns, which SR keeps — pass ``final_mix=False`` for the FIPS-197
behaviour, which our tests verify against the standard's vectors).

Two S-box → ANF encodings are offered:

* ``"quadratic"`` — the Courtois–Pieprzyk biaffine relations for the
  inversion, ``u²v = u`` and ``uv² = v`` (2e quadratic equations per
  S-box, valid for u = 0 too).  This is the same structure SageMath's SR
  module emits and what the paper's instances contain.
* ``"explicit"`` — one equation per output bit, ``v_i = ANF_i(u)``, with
  the ANF computed from the S-box table by Möbius transform (degree e-1).

Substitution note (DESIGN.md §4): the e = 8 affine layer is the genuine
AES one; for e = 4 we use a documented invertible circulant affine layer
(the structural properties — inversion plus affine — match the SR paper).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..anf.polynomial import Poly
from ..anf.ring import Ring
from ..encode.builder import SystemBuilder
from .gf2e import GF2e

def _aes_affine_rows() -> List[int]:
    """The AES affine matrix: b_i = x_i + x_{i+4} + x_{i+5} + x_{i+6} + x_{i+7}."""
    rows = []
    for i in range(8):
        mask = 0
        for off in (0, 4, 5, 6, 7):
            mask |= 1 << ((i + off) % 8)
        rows.append(mask)
    return rows


def _small_affine_rows() -> List[int]:
    """An invertible circulant affine layer for e = 4: b_i = x_i+x_{i+1}+x_{i+2}."""
    rows = []
    for i in range(4):
        mask = 0
        for off in (0, 1, 2):
            mask |= 1 << ((i + off) % 4)
        rows.append(mask)
    return rows


AFFINE_LAYERS: Dict[int, Tuple[List[int], int]] = {
    8: (_aes_affine_rows(), 0x63),
    4: (_small_affine_rows(), 0x6),
}


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


class SmallScaleAES:
    """Concrete SR(n, r, c, e) implementation.

    The state is a flat tuple of ``r*c`` field elements in column-major
    order (element index ``col*r + row``), matching AES's byte layout.
    """

    def __init__(self, n_rounds: int, r: int = 4, c: int = 4, e: int = 8,
                 final_mix: bool = True):
        if r not in (1, 2, 4):
            raise ValueError("r must be 1, 2 or 4")
        if e not in AFFINE_LAYERS:
            raise ValueError("e must be 4 or 8")
        self.n_rounds = n_rounds
        self.r = r
        self.c = c
        self.e = e
        self.final_mix = final_mix
        self.field = GF2e(e)
        self.affine_rows, self.affine_const = AFFINE_LAYERS[e]
        self.sbox_table = [self._sbox(x) for x in range(self.field.size)]
        self.mix_matrix = self._mix_matrix()

    # -- components -------------------------------------------------------------

    def _sbox(self, x: int) -> int:
        inv = self.field.inverse(x)
        out = self.affine_const
        for i, mask in enumerate(self.affine_rows):
            out ^= _parity(mask & inv) << i
        return out

    def sbox(self, x: int) -> int:
        """S-box lookup."""
        return self.sbox_table[x]

    def _mix_matrix(self) -> List[List[int]]:
        a = 0b10  # the field element α = x
        if self.r == 1:
            return [[1]]
        if self.r == 2:
            return [[a ^ 1, a], [a, a ^ 1]]
        # r == 4: the AES circulant (α, α+1, 1, 1).
        first = [a, a ^ 1, 1, 1]
        return [[first[(j - i) % 4] for j in range(4)] for i in range(4)]

    def shift_rows(self, state: Sequence[int]) -> List[int]:
        """Row i rotates left by i (across the c columns)."""
        out = [0] * (self.r * self.c)
        for row in range(self.r):
            for col in range(self.c):
                src_col = (col + row) % self.c
                out[col * self.r + row] = state[src_col * self.r + row]
        return out

    def mix_columns(self, state: Sequence[int]) -> List[int]:
        """Multiply each column by the mix matrix."""
        out = [0] * (self.r * self.c)
        for col in range(self.c):
            column = state[col * self.r:(col + 1) * self.r]
            for i in range(self.r):
                acc = 0
                for j in range(self.r):
                    acc ^= self.field.mul(self.mix_matrix[i][j], column[j])
                out[col * self.r + i] = acc
        return out

    def add_round_key(self, state: Sequence[int], key: Sequence[int]) -> List[int]:
        """XOR the round key into the state."""
        return [s ^ k for s, k in zip(state, key)]

    def key_schedule(self, key: Sequence[int]) -> List[List[int]]:
        """Round keys K_0..K_n (AES-style schedule scaled to r x c)."""
        keys = [list(key)]
        for rnd in range(1, self.n_rounds + 1):
            prev = keys[-1]
            new = [0] * (self.r * self.c)
            last_col = prev[(self.c - 1) * self.r: self.c * self.r]
            rotated = last_col[1:] + last_col[:1] if self.r > 1 else list(last_col)
            subbed = [self.sbox(x) for x in rotated]
            rcon = self.field.pow(0b10, rnd - 1)
            for row in range(self.r):
                new[row] = subbed[row] ^ prev[row] ^ (rcon if row == 0 else 0)
            for col in range(1, self.c):
                for row in range(self.r):
                    idx = col * self.r + row
                    new[idx] = new[idx - self.r] ^ prev[idx]
            keys.append(new)
        return keys

    # -- encryption ----------------------------------------------------------------

    def encrypt(self, plaintext: Sequence[int], key: Sequence[int]) -> List[int]:
        """Encrypt a state-shaped block with a state-shaped key."""
        keys = self.key_schedule(key)
        state = self.add_round_key(list(plaintext), keys[0])
        for rnd in range(1, self.n_rounds + 1):
            state = [self.sbox(x) for x in state]
            state = self.shift_rows(state)
            if self.final_mix or rnd < self.n_rounds:
                state = self.mix_columns(state)
            state = self.add_round_key(state, keys[rnd])
        return state


# -- symbolic encoding -----------------------------------------------------------


class _SymElement:
    """A field element carried symbolically (e polys) and concretely."""

    __slots__ = ("polys", "value")

    def __init__(self, polys: List[Poly], value: int):
        self.polys = polys
        self.value = value


@dataclass
class SrInstance:
    """A generated SR key-recovery ANF instance."""

    ring: Ring
    polynomials: List[Poly]
    key_vars: List[int]
    key: List[int]
    plaintext: List[int]
    ciphertext: List[int]
    params: Tuple[int, int, int, int]
    sbox_encoding: str
    witness: List[int] = field(default_factory=list)

    @property
    def n_vars(self) -> int:
        return self.ring.n_vars


class SrEncoder:
    """ANF encoder for SR(n, r, c, e) key recovery."""

    def __init__(self, cipher: SmallScaleAES, sbox_encoding: str = "quadratic"):
        if sbox_encoding not in ("quadratic", "explicit"):
            raise ValueError("unknown sbox encoding: " + sbox_encoding)
        self.cipher = cipher
        self.sbox_encoding = sbox_encoding
        self._sbox_anf: Optional[List[Poly]] = None

    # -- field-element helpers --------------------------------------------------

    def _const(self, value: int) -> _SymElement:
        return _SymElement(self.cipher.field.sym_const(value), value)

    def _add(self, a: _SymElement, b: _SymElement) -> _SymElement:
        return _SymElement(
            self.cipher.field.sym_add(a.polys, b.polys), a.value ^ b.value
        )

    def _scale(self, a: _SymElement, c: int) -> _SymElement:
        return _SymElement(
            self.cipher.field.sym_scale(a.polys, c), self.cipher.field.mul(a.value, c)
        )

    def _fresh(self, builder: SystemBuilder, value: int, name: str) -> _SymElement:
        bits = builder.new_bits(self.cipher.field.element_to_bits(value), name)
        return _SymElement([b.poly for b in bits], value)

    # -- the S-box ----------------------------------------------------------------

    def _sbox_symbolic(
        self, builder: SystemBuilder, u: _SymElement, name: str
    ) -> _SymElement:
        field = self.cipher.field
        if self.sbox_encoding == "quadratic":
            v_value = field.inverse(u.value)
            v = self._fresh(builder, v_value, name + "_inv")
            # u²v + u = 0 and uv² + v = 0, bit by bit.
            u_sq = field.sym_square(u.polys)
            v_sq = field.sym_square(v.polys)
            lhs1 = field.sym_add(field.sym_mul(u_sq, v.polys), u.polys)
            lhs2 = field.sym_add(field.sym_mul(u.polys, v_sq), v.polys)
            for p in lhs1:
                builder.add_equation(p)
            for p in lhs2:
                builder.add_equation(p)
            inv_elem = v
        else:
            # Explicit: define u as fresh vars, then v_i = ANF_i(u).
            u_vars = self._fresh(builder, u.value, name + "_in")
            for pu, pv in zip(u.polys, u_vars.polys):
                builder.add_equation(pu + pv)
            anf = self._explicit_sbox_anf()
            v_value = field.inverse(u_vars.value)
            v = self._fresh(builder, v_value, name + "_inv")
            base_vars = [p.leading_monomial()[0] for p in u_vars.polys]
            for i in range(field.e):
                substituted = anf[i].remap(
                    {j: base_vars[j] for j in range(field.e)}
                )
                builder.add_equation(v.polys[i] + substituted)
            inv_elem = v
        # Affine layer is linear: apply directly to the polynomials.
        rows, const = self.cipher.affine_rows, self.cipher.affine_const
        out_polys = []
        out_value = const
        for i in range(field.e):
            acc = Poly.constant((const >> i) & 1)
            for j in range(field.e):
                if rows[i] >> j & 1:
                    acc = acc + inv_elem.polys[j]
            out_polys.append(acc)
        for i, mask in enumerate(rows):
            out_value ^= _parity(mask & inv_elem.value) << i
        assert out_value == self.cipher.sbox(u.value)
        return _SymElement(out_polys, out_value)

    def _explicit_sbox_anf(self) -> List[Poly]:
        """ANF of each *inversion* output bit over input variables 0..e-1."""
        if self._sbox_anf is not None:
            return self._sbox_anf
        field = self.cipher.field
        e = field.e
        anf: List[Poly] = []
        for bit in range(e):
            # Möbius transform of the truth table of inverse(x) bit `bit`.
            table = [
                (field.inverse(x) >> bit) & 1 for x in range(field.size)
            ]
            coeffs = list(table)
            for i in range(e):
                step = 1 << i
                for mask in range(field.size):
                    if mask & step:
                        coeffs[mask] ^= coeffs[mask ^ step]
            monomials = []
            for mask in range(field.size):
                if coeffs[mask]:
                    monomials.append(
                        tuple(j for j in range(e) if mask >> j & 1)
                    )
            anf.append(Poly(monomials))
        self._sbox_anf = anf
        return anf

    # -- state transforms --------------------------------------------------------

    def _shift_rows(self, state: List[_SymElement]) -> List[_SymElement]:
        cipher = self.cipher
        out: List[Optional[_SymElement]] = [None] * (cipher.r * cipher.c)
        for row in range(cipher.r):
            for col in range(cipher.c):
                src_col = (col + row) % cipher.c
                out[col * cipher.r + row] = state[src_col * cipher.r + row]
        return out  # type: ignore[return-value]

    def _mix_columns(self, state: List[_SymElement]) -> List[_SymElement]:
        cipher = self.cipher
        out: List[_SymElement] = []
        for col in range(cipher.c):
            column = state[col * cipher.r:(col + 1) * cipher.r]
            for i in range(cipher.r):
                acc = self._const(0)
                for j in range(cipher.r):
                    acc = self._add(acc, self._scale(column[j], cipher.mix_matrix[i][j]))
                out.append(acc)
        return out

    # -- full encoding --------------------------------------------------------------

    def encode(
        self, plaintext: Sequence[int], key: Sequence[int]
    ) -> SrInstance:
        """Encode key recovery for one (P, C) pair under the given key."""
        cipher = self.cipher
        builder = SystemBuilder()
        key_elems = [
            self._fresh(builder, key[i], "k{}".format(i))
            for i in range(cipher.r * cipher.c)
        ]
        key_vars = list(range(cipher.r * cipher.c * cipher.e))

        # Symbolic key schedule.
        round_keys = [key_elems]
        for rnd in range(1, cipher.n_rounds + 1):
            prev = round_keys[-1]
            last_col = prev[(cipher.c - 1) * cipher.r: cipher.c * cipher.r]
            rotated = last_col[1:] + last_col[:1] if cipher.r > 1 else list(last_col)
            subbed = [
                self._sbox_symbolic(builder, x, "ks{}_{}".format(rnd, i))
                for i, x in enumerate(rotated)
            ]
            rcon = cipher.field.pow(0b10, rnd - 1)
            new: List[_SymElement] = [self._const(0)] * (cipher.r * cipher.c)
            for row in range(cipher.r):
                elem = self._add(subbed[row], prev[row])
                if row == 0:
                    elem = self._add(elem, self._const(rcon))
                new[row] = elem
            for col in range(1, cipher.c):
                for row in range(cipher.r):
                    idx = col * cipher.r + row
                    new[idx] = self._add(new[idx - cipher.r], prev[idx])
            round_keys.append(new)

        # Symbolic encryption.
        state = [
            self._add(self._const(p), k)
            for p, k in zip(plaintext, round_keys[0])
        ]
        for rnd in range(1, cipher.n_rounds + 1):
            state = [
                self._sbox_symbolic(builder, x, "r{}_{}".format(rnd, i))
                for i, x in enumerate(state)
            ]
            state = self._shift_rows(state)
            if cipher.final_mix or rnd < cipher.n_rounds:
                state = self._mix_columns(state)
            state = [self._add(s, k) for s, k in zip(state, round_keys[rnd])]

        # Constrain to the concrete ciphertext.
        ciphertext = cipher.encrypt(plaintext, key)
        for elem, want in zip(state, ciphertext):
            assert elem.value == want, "SR encoder/witness mismatch"
            for i in range(cipher.e):
                builder.add_equation(
                    elem.polys[i].add_constant((want >> i) & 1)
                )

        assert builder.check_witness(), "SR witness fails its own equations"
        return SrInstance(
            ring=builder.ring,
            polynomials=builder.equations,
            key_vars=key_vars,
            key=list(key),
            plaintext=list(plaintext),
            ciphertext=ciphertext,
            params=(cipher.n_rounds, cipher.r, cipher.c, cipher.e),
            sbox_encoding=self.sbox_encoding,
            witness=builder.witness_assignment(),
        )


def generate_instance(
    n_rounds: int = 1,
    r: int = 4,
    c: int = 4,
    e: int = 8,
    seed: int = 0,
    sbox_encoding: str = "quadratic",
) -> SrInstance:
    """The paper's SR-[n, r, c, e] instance: random (P, K), solve for K."""
    rng = random.Random(seed)
    cipher = SmallScaleAES(n_rounds, r, c, e)
    plaintext = [rng.randrange(cipher.field.size) for _ in range(r * c)]
    key = [rng.randrange(cipher.field.size) for _ in range(r * c)]
    return SrEncoder(cipher, sbox_encoding).encode(plaintext, key)

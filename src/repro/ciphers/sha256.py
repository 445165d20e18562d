"""SHA-256, concrete and as an ANF encoder.

The paper's third ANF family is a weakened Bitcoin nonce search over
SHA-256 (encoded with the generic cgen tool).  Here:

* :func:`sha256` / :func:`compress` — a bit-exact reference implementation
  (verified against ``hashlib`` in the tests), parameterised by the number
  of compression rounds, and
* :class:`Sha256Encoder` — a symbolic encoder in the cgen style: every
  32-bit addition is a ripple-carry adder with fresh carry variables, and
  the Ch/Maj bit mixers get fresh output variables, so every equation has
  degree ≤ 2.

Round reduction keeps the exact adder/Ch/Maj structure while making the
instances solvable by the pure-Python stack (DESIGN.md §4, substitution 3).
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence

from ..encode import (
    SystemBuilder,
    TracedBit,
    add_many,
    const_vector,
    rotr,
    shr,
    xor_vec,
)

MASK32 = 0xFFFFFFFF

#: Initial hash values (FIPS 180-4).
H0 = [
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
]

#: Round constants.
K = [
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5,
    0x3956C25B, 0x59F111F1, 0x923F82A4, 0xAB1C5ED5,
    0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174,
    0xE49B69C1, 0xEFBE4786, 0x0FC19DC6, 0x240CA1CC,
    0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7,
    0xC6E00BF3, 0xD5A79147, 0x06CA6351, 0x14292967,
    0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85,
    0xA2BFE8A1, 0xA81A664B, 0xC24B8B70, 0xC76C51A3,
    0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5,
    0x391C0CB3, 0x4ED8AA4A, 0x5B9CCA4F, 0x682E6FF3,
    0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
]


def _rotr32(x: int, k: int) -> int:
    return ((x >> k) | (x << (32 - k))) & MASK32


def _shr32(x: int, k: int) -> int:
    return x >> k


def message_schedule(words: Sequence[int], rounds: int) -> List[int]:
    """Expand 16 message words to ``rounds`` schedule words."""
    w = list(words[:16])
    for t in range(16, rounds):
        s0 = _rotr32(w[t - 15], 7) ^ _rotr32(w[t - 15], 18) ^ _shr32(w[t - 15], 3)
        s1 = _rotr32(w[t - 2], 17) ^ _rotr32(w[t - 2], 19) ^ _shr32(w[t - 2], 10)
        w.append((w[t - 16] + s0 + w[t - 7] + s1) & MASK32)
    return w[:rounds]


def compress(block_words: Sequence[int], state: Sequence[int] = H0, rounds: int = 64) -> List[int]:
    """One (round-reduced) SHA-256 compression of a 16-word block."""
    w = message_schedule(block_words, max(rounds, 16))
    a, b, c, d, e, f, g, h = state
    for t in range(rounds):
        big_s1 = _rotr32(e, 6) ^ _rotr32(e, 11) ^ _rotr32(e, 25)
        ch = (e & f) ^ (~e & g & MASK32)
        t1 = (h + big_s1 + ch + K[t] + w[t]) & MASK32
        big_s0 = _rotr32(a, 2) ^ _rotr32(a, 13) ^ _rotr32(a, 22)
        maj = (a & b) ^ (a & c) ^ (b & c)
        t2 = (big_s0 + maj) & MASK32
        h, g, f, e, d, c, b, a = g, f, e, (d + t1) & MASK32, c, b, a, (t1 + t2) & MASK32
    return [
        (x + y) & MASK32 for x, y in zip([a, b, c, d, e, f, g, h], state)
    ]


def pad_message(message: bytes) -> bytes:
    """FIPS 180-4 padding."""
    length = len(message) * 8
    out = message + b"\x80"
    while (len(out) % 64) != 56:
        out += b"\x00"
    return out + struct.pack(">Q", length)


def sha256(message: bytes, rounds: int = 64) -> bytes:
    """(Round-reduced) SHA-256 digest of a byte string."""
    padded = pad_message(message)
    state = list(H0)
    for off in range(0, len(padded), 64):
        words = list(struct.unpack(">16I", padded[off: off + 64]))
        state = compress(words, state, rounds)
    return struct.pack(">8I", *state)


# -- symbolic encoding ---------------------------------------------------------

Word = List[TracedBit]


def _word_from_int(value: int) -> Word:
    return const_vector(value & MASK32, 32)


class Sha256Encoder:
    """Symbolic (round-reduced) SHA-256 compression over traced bits.

    Message words may mix constants and unknowns.  All additions introduce
    carry variables, Ch and Maj introduce per-bit output variables.
    """

    def __init__(self, builder: Optional[SystemBuilder] = None, rounds: int = 64):
        self.builder = builder or SystemBuilder()
        self.rounds = rounds

    # -- bit mixers -----------------------------------------------------------

    def _define_word(self, bits: Word, name: str) -> Word:
        out = []
        for i, b in enumerate(bits):
            if b.is_constant() or len(b.poly) <= 1:
                out.append(b)
            else:
                out.append(self.builder.define(b, "{}_{}".format(name, i)))
        return out

    def _ch(self, e: Word, f: Word, g: Word, name: str) -> Word:
        out = []
        for i in range(32):
            expr = (e[i] & f[i]) ^ (~e[i] & g[i])
            if expr.is_constant():
                out.append(expr)
            else:
                out.append(self.builder.define(expr, "{}_{}".format(name, i)))
        return out

    def _maj(self, a: Word, b: Word, c: Word, name: str) -> Word:
        out = []
        for i in range(32):
            expr = (a[i] & b[i]) ^ (a[i] & c[i]) ^ (b[i] & c[i])
            if expr.is_constant():
                out.append(expr)
            else:
                out.append(self.builder.define(expr, "{}_{}".format(name, i)))
        return out

    def _sigma(self, w: Word, r1: int, r2: int, s: int) -> Word:
        return xor_vec(xor_vec(rotr(w, r1), rotr(w, r2)), shr(w, s))

    def _big_sigma(self, w: Word, r1: int, r2: int, r3: int) -> Word:
        return xor_vec(xor_vec(rotr(w, r1), rotr(w, r2)), rotr(w, r3))

    # -- schedule + compression ---------------------------------------------------

    def expand_schedule(self, words: Sequence[Word]) -> List[Word]:
        """Symbolic message schedule for ``self.rounds`` rounds."""
        w = [list(x) for x in words[:16]]
        for t in range(16, self.rounds):
            s0 = self._sigma(w[t - 15], 7, 18, 3)
            s1 = self._sigma(w[t - 2], 17, 19, 10)
            s0 = self._define_word(s0, "w{}s0".format(t))
            s1 = self._define_word(s1, "w{}s1".format(t))
            total = add_many(self.builder, [w[t - 16], s0, w[t - 7], s1], "w{}".format(t))
            w.append(total)
        return w[: self.rounds]

    def compress(self, words: Sequence[Word], state: Sequence[int] = H0) -> List[Word]:
        """Symbolic compression; returns the 8 output words."""
        w = self.expand_schedule(words)
        regs = [_word_from_int(x) for x in state]
        a, b, c, d, e, f, g, h = regs
        for t in range(self.rounds):
            s1 = self._define_word(self._big_sigma(e, 6, 11, 25), "r{}s1".format(t))
            ch = self._ch(e, f, g, "r{}ch".format(t))
            t1 = add_many(
                self.builder,
                [h, s1, ch, _word_from_int(K[t]), w[t]],
                "r{}t1".format(t),
            )
            s0 = self._define_word(self._big_sigma(a, 2, 13, 22), "r{}s0".format(t))
            maj = self._maj(a, b, c, "r{}maj".format(t))
            t2 = add_many(self.builder, [s0, maj], "r{}t2".format(t))
            new_e = add_many(self.builder, [d, t1], "r{}e".format(t))
            new_a = add_many(self.builder, [t1, t2], "r{}a".format(t))
            h, g, f, e, d, c, b, a = g, f, e, new_e, c, b, a, new_a
        out = []
        for i, (reg, init) in enumerate(zip([a, b, c, d, e, f, g, h], state)):
            out.append(add_many(self.builder, [reg, _word_from_int(init)], "out{}".format(i)))
        return out


"""The Simon lightweight block cipher (Beaulieu et al., DAC 2015).

The paper's second ANF benchmark family: round-reduced Simon32/64 with
``n`` plaintext/ciphertext pairs under one secret key, plaintexts chosen
in the Similar Plaintexts / Random Ciphertexts (SP/RC) style of Courtois
et al. (SECRYPT 2014) — the first plaintext is random and plaintext
``i+1`` toggles bit ``i`` of the right half of the first.

Two halves live here:

* a concrete reference implementation (verified against the published
  Simon32/64 test vector), and
* an ANF encoder: the 64 key bits are unknowns, the key schedule is
  expanded *symbolically* (it is linear for Simon), and each round
  introduces 16 fresh state variables tied by degree-2 equations —
  ``x_{i+1} = y_i ⊕ (S¹x_i & S⁸x_i) ⊕ S²x_i ⊕ k_i``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..anf.polynomial import Poly
from ..anf.ring import Ring
from ..encode import (
    SystemBuilder,
    and_vec,
    const_vector,
    constrain_vector,
    rotl,
    to_int,
    xor_vec,
)

WORD = 16  # Simon32/64: 16-bit words
KEY_WORDS = 4  # m = 4 key words
FULL_ROUNDS = 32

#: The z0 constant sequence used by Simon32/64 (Beaulieu et al., Table 2).
Z0 = [int(c) for c in
      "11111010001001010110000111001101111101000100101011000011100110"]


def _rotl16(x: int, k: int) -> int:
    k %= WORD
    return ((x << k) | (x >> (WORD - k))) & 0xFFFF


def _round_function(x: int) -> int:
    return (_rotl16(x, 1) & _rotl16(x, 8)) ^ _rotl16(x, 2)


def key_schedule(key_words: Sequence[int], rounds: int) -> List[int]:
    """Expand a 64-bit key (4 words, k[0] used first) to round keys.

    ``key_words`` is ``(k3, k2, k1, k0)`` in the test-vector convention,
    i.e. index 0 is the word used in the *last* schedule position; we
    accept the natural order ``k[i]`` = round-i key and let callers adapt.
    """
    k = list(key_words)
    c = 0xFFFC  # 2^16 - 4
    for i in range(len(k), rounds):
        tmp = ((k[i - 1] >> 3) | (k[i - 1] << (WORD - 3))) & 0xFFFF
        tmp ^= k[i - 3]
        tmp ^= ((tmp >> 1) | (tmp << (WORD - 1))) & 0xFFFF
        k.append((~k[i - 4] & 0xFFFF) ^ tmp ^ Z0[(i - KEY_WORDS) % 62] ^ 3)
    return k[:rounds]


def encrypt(plaintext: Tuple[int, int], key_words: Sequence[int], rounds: int = FULL_ROUNDS) -> Tuple[int, int]:
    """Encrypt a 32-bit block ``(left, right)`` with round-reduced Simon32/64.

    ``key_words[0]`` is the first round key word (k0).
    """
    x, y = plaintext
    ks = key_schedule(key_words, rounds)
    for i in range(rounds):
        x, y = y ^ _round_function(x) ^ ks[i], x
    return x, y


# -- symbolic encoding ------------------------------------------------------------


def _sym_round_function(bits):
    return xor_vec(and_vec(rotl(bits, 1), rotl(bits, 8)), rotl(bits, 2))


def _sym_key_schedule(builder: SystemBuilder, key_bits, rounds: int):
    """Round-key bit vectors; purely linear, so no fresh variables."""
    ks = [list(key_bits[i * WORD:(i + 1) * WORD]) for i in range(KEY_WORDS)]
    ones = const_vector(0xFFFF, WORD)
    for i in range(KEY_WORDS, rounds):
        tmp = rotl(ks[i - 1], -3)
        tmp = xor_vec(tmp, ks[i - 3])
        tmp = xor_vec(tmp, rotl(tmp, -1))
        const = 3 ^ Z0[(i - KEY_WORDS) % 62]
        new = xor_vec(xor_vec(ks[i - 4], ones), tmp)
        new = xor_vec(new, const_vector(const, WORD))
        ks.append(new)
    return ks[:rounds]


@dataclass
class SimonInstance:
    """A generated Simon key-recovery ANF instance."""

    ring: Ring
    polynomials: List[Poly]
    key_vars: List[int]
    key_words: List[int]
    plaintexts: List[Tuple[int, int]]
    ciphertexts: List[Tuple[int, int]]
    rounds: int
    witness: List[int] = field(default_factory=list)

    @property
    def n_vars(self) -> int:
        return self.ring.n_vars


def encode_instance(
    plaintexts: Sequence[Tuple[int, int]],
    key_words: Sequence[int],
    rounds: int,
) -> SimonInstance:
    """Encode key recovery: given (P_i, C_i) pairs, solve for the key."""
    builder = SystemBuilder()
    # Key bits are the unknowns (witness = the true key, for checking).
    key_bits = []
    for w in range(KEY_WORDS):
        key_bits.extend(
            builder.new_bits(
                [(key_words[w] >> b) & 1 for b in range(WORD)], "k{}".format(w)
            )
        )
    round_keys = _sym_key_schedule(builder, key_bits, rounds)

    ciphertexts = []
    for p_idx, (px, py) in enumerate(plaintexts):
        x = const_vector(px, WORD)
        y = const_vector(py, WORD)
        for r in range(rounds):
            f = _sym_round_function(x)
            new_x_expr = xor_vec(xor_vec(y, f), round_keys[r])
            if r + 1 < rounds:
                # Fresh round-state variables keep the degree at 2.
                new_x = [
                    builder.define(b, "p{}r{}b{}".format(p_idx, r + 1, i))
                    for i, b in enumerate(new_x_expr)
                ]
            else:
                new_x = new_x_expr
            x, y = new_x, x
        cx, cy = to_int(x), to_int(y)
        ciphertexts.append((cx, cy))
        constrain_vector(builder, x, cx)
        constrain_vector(builder, y, cy)

    assert builder.check_witness(), "Simon encoder/witness mismatch"
    return SimonInstance(
        ring=builder.ring,
        polynomials=builder.equations,
        key_vars=list(range(WORD * KEY_WORDS)),
        key_words=list(key_words),
        plaintexts=list(plaintexts),
        ciphertexts=ciphertexts,
        rounds=rounds,
        witness=builder.witness_assignment(),
    )


def sp_rc_plaintexts(n: int, rng: random.Random) -> List[Tuple[int, int]]:
    """Similar-plaintext set: P1 random; P_{i+1} toggles right-half bit i."""
    p1 = (rng.getrandbits(WORD), rng.getrandbits(WORD))
    out = [p1]
    for i in range(1, n):
        out.append((p1[0], p1[1] ^ (1 << (i - 1))))
    return out


def generate_instance(
    n_plaintexts: int, rounds: int, seed: int = 0
) -> SimonInstance:
    """The paper's Simon-[n, r] instance: n SP/RC pairs, r rounds, one key."""
    rng = random.Random(seed)
    key = [rng.getrandbits(WORD) for _ in range(KEY_WORDS)]
    plaintexts = sp_rc_plaintexts(n_plaintexts, rng)
    return encode_instance(plaintexts, key, rounds)

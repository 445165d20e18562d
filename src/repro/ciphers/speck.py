"""The Speck lightweight block cipher (Beaulieu et al., DAC 2015).

An extension family beyond the paper's three: Speck is Simon's ARX
sibling (add–rotate–xor), so its ANF encoding exercises the ripple-carry
adder machinery (like the Bitcoin/SHA-256 instances) inside a block
cipher key-recovery problem.  The reference implementation is verified
against the published Speck32/64 test vector.

Speck32/64: 16-bit words, 4 key words, 22 rounds, rotations α=7, β=2.
Round: ``x = (x >>> 7) + y ^ k``;  ``y = (y <<< 2) ^ x``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..anf.polynomial import Poly
from ..anf.ring import Ring
from ..encode import (
    SystemBuilder,
    adder,
    const_vector,
    constrain_vector,
    rotl,
    to_int,
    xor_vec,
)

WORD = 16
KEY_WORDS = 4
FULL_ROUNDS = 22
ALPHA = 7
BETA = 2
MASK = 0xFFFF


def _rotl16(x: int, k: int) -> int:
    k %= WORD
    return ((x << k) | (x >> (WORD - k))) & MASK


def _rotr16(x: int, k: int) -> int:
    return _rotl16(x, WORD - (k % WORD))


def _round(x: int, y: int, k: int) -> Tuple[int, int]:
    x = (_rotr16(x, ALPHA) + y) & MASK
    x ^= k
    y = _rotl16(y, BETA) ^ x
    return x, y


def key_schedule(key_words: Sequence[int], rounds: int) -> List[int]:
    """Round keys for Speck32/64.

    ``key_words = [k0, l0, l1, l2]`` — k0 is the first round key.
    """
    k = [key_words[0]]
    l = list(key_words[1:])
    for i in range(rounds - 1):
        new_l = (k[i] + _rotr16(l[i], ALPHA)) & MASK
        new_l ^= i
        l.append(new_l)
        k.append(_rotl16(k[i], BETA) ^ new_l)
    return k[:rounds]


def encrypt(plaintext: Tuple[int, int], key_words: Sequence[int],
            rounds: int = FULL_ROUNDS) -> Tuple[int, int]:
    """Encrypt a 32-bit block ``(x, y)`` with round-reduced Speck32/64."""
    x, y = plaintext
    for k in key_schedule(key_words, rounds):
        x, y = _round(x, y, k)
    return x, y


# -- symbolic encoding ---------------------------------------------------------


@dataclass
class SpeckInstance:
    """A generated Speck key-recovery ANF instance."""

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


def _sym_key_schedule(builder: SystemBuilder, key_bits, rounds: int):
    """Symbolic round keys; additions introduce carry variables."""
    k = [key_bits[0:WORD]]
    l = [key_bits[WORD * (1 + i): WORD * (2 + i)] for i in range(KEY_WORDS - 1)]
    for i in range(rounds - 1):
        rotated = rotl(l[i], WORD - ALPHA)
        new_l = adder(builder, k[i], rotated, "ks{}l".format(i))
        new_l = xor_vec(new_l, const_vector(i, WORD))
        l.append(new_l)
        k.append(xor_vec(rotl(k[i], BETA), new_l))
    return k[:rounds]


def encode_instance(
    plaintexts: Sequence[Tuple[int, int]],
    key_words: Sequence[int],
    rounds: int,
) -> SpeckInstance:
    """Encode Speck key recovery: unknown key, known (P, C) pairs."""
    builder = SystemBuilder()
    key_bits = []
    names = ["k0", "l0", "l1", "l2"]
    for w in range(KEY_WORDS):
        key_bits.extend(
            builder.new_bits(
                [(key_words[w] >> b) & 1 for b in range(WORD)], names[w]
            )
        )
    round_keys = _sym_key_schedule(builder, key_bits, rounds)

    ciphertexts = []
    for p_idx, (px, py) in enumerate(plaintexts):
        x = const_vector(px, WORD)
        y = const_vector(py, WORD)
        for r in range(rounds):
            rotated = rotl(x, WORD - ALPHA)
            summed = adder(builder, rotated, y, "p{}r{}add".format(p_idx, r))
            x = xor_vec(summed, round_keys[r])
            y = xor_vec(rotl(y, BETA), x)
            # Cap expression growth: XORs of sums stay small, but define
            # the x word so the next round's adder inputs are variables.
            x = [builder.define_if_deep(b) for b in x]
            y = [builder.define_if_deep(b) for b in y]
        cx, cy = to_int(x), to_int(y)
        ciphertexts.append((cx, cy))
        constrain_vector(builder, x, cx)
        constrain_vector(builder, y, cy)

    assert builder.check_witness(), "Speck encoder/witness mismatch"
    return SpeckInstance(
        ring=builder.ring,
        polynomials=builder.equations,
        key_vars=list(range(WORD * KEY_WORDS)),
        key_words=list(key_words),
        plaintexts=list(plaintexts),
        ciphertexts=ciphertexts,
        rounds=rounds,
        witness=builder.witness_assignment(),
    )


def generate_instance(
    n_plaintexts: int, rounds: int, seed: int = 0
) -> SpeckInstance:
    """A Speck-[n, r] key-recovery instance with random key/plaintexts."""
    rng = random.Random(seed)
    key = [rng.getrandbits(WORD) for _ in range(KEY_WORDS)]
    plaintexts = [
        (rng.getrandbits(WORD), rng.getrandbits(WORD))
        for _ in range(n_plaintexts)
    ]
    return encode_instance(plaintexts, key, rounds)

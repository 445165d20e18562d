"""Weakened Bitcoin nonce finding (paper appendix C, Fig. 5).

The challenge: a 512-bit single-block message whose first 415 bits are
randomly fixed, followed by one forced ``1`` bit and a free 32-bit nonce;
the remaining 64 bits are SHA padding (a ``1`` bit and the length 448).
Find a nonce making the first ``k`` bits of the SHA-256 hash zero.

The instance generator mirrors Fig. 5's layout exactly.  Difficulty is
controlled by ``k`` (the paper uses k ∈ {10, 15, 20}); we additionally
expose the round count so the pure-Python stack can solve the instances
(substitution 3 in DESIGN.md).  A solvable instance is guaranteed by
sampling nonces until the challenge has a solution, exactly as a Bitcoin
miner's parameter choice guarantees in expectation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from ..anf.polynomial import Poly
from ..anf.ring import Ring
from ..encode import SystemBuilder, TracedBit
from .sha256 import H0, Sha256Encoder, compress

#: Fig. 5 layout constants: 415 fixed bits, a 32-bit nonce, the SHA
#: padding '1' bit, and the 64-bit length field encoding |M| = 448.
FIXED_BITS = 415
NONCE_BITS = 32
PAD_LENGTH_VALUE = 448


def build_block_words(prefix_bits: List[int], nonce: int) -> List[int]:
    """The 16 message words for a given 415-bit prefix and 32-bit nonce.

    Bit order: prefix bit ``i`` is message bit ``i`` counting from the
    most significant bit of word 0 (SHA-256's big-endian convention).
    The layout is Fig. 5's: 415 + 32 + 1 + 64 = 512 bits exactly.
    """
    bits = list(prefix_bits[:FIXED_BITS])
    for i in range(NONCE_BITS):
        bits.append((nonce >> (NONCE_BITS - 1 - i)) & 1)
    bits.append(1)  # SHA padding '1'
    length_bits = [(PAD_LENGTH_VALUE >> (63 - i)) & 1 for i in range(64)]
    bits.extend(length_bits)
    assert len(bits) == 512
    words = []
    for w in range(16):
        value = 0
        for b in range(32):
            value = (value << 1) | bits[w * 32 + b]
        words.append(value)
    return words


def hash_leading_zero_bits(words: List[int], rounds: int = 64) -> int:
    """Number of leading zero bits of the (round-reduced) hash."""
    digest = compress(words, H0, rounds)
    count = 0
    for word in digest:
        for b in range(31, -1, -1):
            if (word >> b) & 1:
                return count
            count += 1
    return count


@dataclass
class BitcoinInstance:
    """A generated nonce-finding ANF instance."""

    ring: Ring
    polynomials: List[Poly]
    nonce_vars: List[int]
    prefix_bits: List[int]
    solution_nonce: int
    k: int
    rounds: int
    witness: List[int] = field(default_factory=list)

    @property
    def n_vars(self) -> int:
        return self.ring.n_vars

    def nonce_from_assignment(self, assignment: List[int]) -> int:
        """Decode the nonce from a solver model (MSB-first variables)."""
        value = 0
        for i, var in enumerate(self.nonce_vars):
            value |= assignment[var] << (NONCE_BITS - 1 - i)
        return value


def find_solution_nonce(
    prefix_bits: List[int], k: int, rounds: int, rng: random.Random,
    max_tries: int = 1 << 22,
) -> Optional[int]:
    """Brute-force a nonce achieving ``k`` leading zero bits (or None)."""
    for _ in range(max_tries):
        nonce = rng.getrandbits(NONCE_BITS)
        words = build_block_words(prefix_bits, nonce)
        if hash_leading_zero_bits(words, rounds) >= k:
            return nonce
    return None


def encode_instance(
    prefix_bits: List[int], k: int, rounds: int, solution_nonce: int
) -> BitcoinInstance:
    """Encode the nonce search as an ANF (32 unknowns + SHA circuit).

    ``rounds`` must be at least 16: the free nonce occupies message words
    12–13, so a much shorter compression never absorbs it and the
    challenge degenerates to a constant.
    """
    if rounds < 16:
        raise ValueError("rounds must be >= 16 so the nonce word is absorbed")
    builder = SystemBuilder()
    nonce_bits = builder.new_bits(
        [(solution_nonce >> (NONCE_BITS - 1 - i)) & 1 for i in range(NONCE_BITS)],
        "nonce",
    )
    nonce_vars = [b.poly.leading_monomial()[0] for b in nonce_bits]

    # Assemble the 512 message bits as traced bits (Fig. 5 layout).
    bits: List[TracedBit] = [TracedBit.const(b) for b in prefix_bits[:FIXED_BITS]]
    bits.extend(nonce_bits)
    bits.append(TracedBit.const(1))
    bits.extend(
        TracedBit.const((PAD_LENGTH_VALUE >> (63 - i)) & 1) for i in range(64)
    )
    assert len(bits) == 512
    # Pack into little-endian-bit words for the encoder (our Word vectors
    # index bit 0 as LSB, while SHA numbers message bits MSB-first).
    words = []
    for w in range(16):
        chunk = bits[w * 32:(w + 1) * 32]
        words.append(list(reversed(chunk)))  # LSB-first

    encoder = Sha256Encoder(builder, rounds)
    digest = encoder.compress(words)

    # Constrain the k leading bits of the digest to zero.
    constrained = 0
    for word in digest:
        for b in range(31, -1, -1):
            if constrained >= k:
                break
            builder.constrain(word[b], 0)
            constrained += 1
        if constrained >= k:
            break

    assert builder.check_witness(), "Bitcoin encoder/witness mismatch"
    return BitcoinInstance(
        ring=builder.ring,
        polynomials=builder.equations,
        nonce_vars=nonce_vars,
        prefix_bits=list(prefix_bits[:FIXED_BITS]),
        solution_nonce=solution_nonce,
        k=k,
        rounds=rounds,
        witness=builder.witness_assignment(),
    )


def generate_instance(
    k: int, rounds: int = 64, seed: int = 0
) -> BitcoinInstance:
    """The paper's Bitcoin-[k] instance (round count configurable)."""
    rng = random.Random(seed)
    while True:
        prefix = [rng.getrandbits(1) for _ in range(FIXED_BITS)]
        nonce = find_solution_nonce(prefix, k, rounds, rng, max_tries=1 << (k + 6))
        if nonce is not None:
            return encode_instance(prefix, k, rounds, nonce)

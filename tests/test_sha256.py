"""Tests for SHA-256: reference vs hashlib, and symbolic consistency."""

import hashlib
import random

import pytest

from repro.ciphers.sha256 import (
    H0,
    Sha256Encoder,
    compress,
    message_schedule,
    pad_message,
    sha256,
)
from repro.encode import SystemBuilder, TracedBit, to_int


@pytest.mark.parametrize(
    "message",
    [b"", b"abc", b"a" * 55, b"a" * 56, b"a" * 64, b"hello world" * 13,
     bytes(range(256))],
)
def test_matches_hashlib(message):
    assert sha256(message) == hashlib.sha256(message).digest()


def test_known_abc_digest():
    assert sha256(b"abc").hex() == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_padding_length_multiple_of_64():
    for n in range(0, 130, 7):
        assert len(pad_message(b"x" * n)) % 64 == 0


def test_message_schedule_prefix_is_message():
    words = list(range(16))
    w = message_schedule(words, 20)
    assert w[:16] == words
    assert len(w) == 20


def test_reduced_rounds_differ_from_full():
    words = [0x61626380] + [0] * 14 + [24]  # "abc" padded
    assert compress(words, H0, 16) != compress(words, H0, 64)


# -- symbolic encoder ----------------------------------------------------------------


def constant_words(values):
    return [
        [TracedBit.const((v >> i) & 1) for i in range(32)] for v in values
    ]


@pytest.mark.parametrize("rounds", [16, 20, 24])
def test_symbolic_constant_folding_matches_reference(rounds):
    rng = random.Random(rounds)
    words = [rng.getrandbits(32) for _ in range(16)]
    encoder = Sha256Encoder(SystemBuilder(), rounds)
    out = encoder.compress(constant_words(words))
    assert [to_int(w) for w in out] == compress(words, H0, rounds)
    # All-constant input must generate no equations at all.
    assert len(encoder.builder.equations) == 0


def test_symbolic_witness_consistency_with_variables():
    """With unknown message bits, the witness must satisfy every equation
    and the traced output must equal the reference hash."""
    rng = random.Random(7)
    words_int = [rng.getrandbits(32) for _ in range(16)]
    builder = SystemBuilder()
    words = []
    for w, value in enumerate(words_int):
        if w == 13:  # make one word unknown (like the nonce word)
            bits = builder.new_bits([(value >> i) & 1 for i in range(32)])
        else:
            bits = [TracedBit.const((value >> i) & 1) for i in range(32)]
        words.append(bits)
    encoder = Sha256Encoder(builder, rounds=18)
    out = encoder.compress(words)
    assert [to_int(w) for w in out] == compress(words_int, H0, 18)
    assert builder.check_witness()


def test_equations_degree_at_most_two():
    builder = SystemBuilder()
    words = [builder.new_bits([0] * 32) if w < 2 else
             [TracedBit.const(0)] * 32 for w in range(16)]
    encoder = Sha256Encoder(builder, rounds=17)
    encoder.compress(words)
    assert builder.equations
    assert max(p.degree() for p in builder.equations) <= 2


def test_verify_against_reference_helper():
    rng = random.Random(3)
    concrete = [rng.getrandbits(32) for _ in range(16)]
    out = Sha256Encoder(SystemBuilder(), 16).compress(constant_words(concrete))
    assert [to_int(w) for w in out] == compress(concrete, H0, 16)

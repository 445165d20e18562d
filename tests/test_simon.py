"""Tests for the Simon32/64 cipher and its ANF encoding."""

import random

from repro.ciphers import simon
from repro.core import Bosphorus, Config, Solution

TEST_KEY = [0x0100, 0x0908, 0x1110, 0x1918]
TEST_PT = (0x6565, 0x6877)
TEST_CT = (0xC69B, 0xE9BB)


def test_published_test_vector():
    assert simon.encrypt(TEST_PT, TEST_KEY, 32) == TEST_CT


def test_key_schedule_first_words_are_key():
    ks = simon.key_schedule([1, 2, 3, 4], 6)
    assert ks[:4] == [1, 2, 3, 4]
    assert len(ks) == 6


def test_sp_rc_plaintexts_toggle_right_half():
    rng = random.Random(0)
    pts = simon.sp_rc_plaintexts(5, rng)
    assert len(pts) == 5
    base = pts[0]
    for i in range(1, 5):
        assert pts[i][0] == base[0]
        assert pts[i][1] == base[1] ^ (1 << (i - 1))


def test_instance_witness_satisfies_equations():
    inst = simon.generate_instance(2, 5, seed=9)
    assert Solution(inst.witness).satisfies(inst.polynomials)


def test_instance_ciphertexts_match_reference():
    inst = simon.generate_instance(3, 7, seed=4)
    for pt, ct in zip(inst.plaintexts, inst.ciphertexts):
        assert simon.encrypt(pt, inst.key_words, 7) == ct


def test_equations_quadratic():
    inst = simon.generate_instance(2, 6, seed=1)
    assert max(p.degree() for p in inst.polynomials) <= 2


def test_variable_count():
    # 64 key bits + 16 state bits per (round-1) per plaintext.
    inst = simon.generate_instance(2, 6, seed=1)
    assert inst.n_vars == 64 + 2 * (6 - 1) * 16


def test_key_schedule_is_linear_symbolically():
    inst = simon.generate_instance(1, 8, seed=2)
    # All equations involving only key variables must be absent (the key
    # schedule adds no equations); instance equations tie states.
    assert len(inst.polynomials) == (8 - 1) * 16 + 32


def test_one_round_instance_trivially_solvable():
    inst = simon.generate_instance(1, 1, seed=5)
    # One round with known P, C: equations are linear in the key.
    assert all(p.degree() <= 2 for p in inst.polynomials)
    result = Bosphorus(Config(max_iterations=3)).preprocess_anf(
        inst.ring, inst.polynomials
    )
    assert result.status != "unsat"


def test_bosphorus_recovers_consistent_key_small():
    inst = simon.generate_instance(2, 3, seed=12)
    cfg = Config(xl_sample_bits=12, elimlin_sample_bits=12,
                 sat_conflict_start=3000, sat_conflict_max=9000, max_iterations=5)
    result = Bosphorus(cfg).preprocess_anf(inst.ring, inst.polynomials)
    assert result.status == "sat"
    assert result.solution.satisfies(inst.polynomials)
    # The recovered key must encrypt all plaintexts to the right ciphertexts.
    key_words = []
    for w in range(4):
        word = 0
        for b in range(16):
            word |= result.solution[w * 16 + b] << b
        key_words.append(word)
    for pt, ct in zip(inst.plaintexts, inst.ciphertexts):
        assert simon.encrypt(pt, key_words, inst.rounds) == ct

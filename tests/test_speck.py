"""Tests for the Speck32/64 extension family."""

from repro.ciphers import speck
from repro.core import Bosphorus, Config, Solution

TEST_KEY = [0x0100, 0x0908, 0x1110, 0x1918]


def test_published_test_vector():
    assert speck.encrypt((0x6574, 0x694C), TEST_KEY, 22) == (0xA868, 0x42F2)


def test_key_schedule_first_key_is_k0():
    ks = speck.key_schedule([7, 8, 9, 10], 5)
    assert ks[0] == 7
    assert len(ks) == 5


def test_instance_witness_satisfies_equations():
    inst = speck.generate_instance(2, 3, seed=5)
    assert Solution(inst.witness).satisfies(inst.polynomials)


def test_instance_ciphertexts_match_reference():
    inst = speck.generate_instance(2, 4, seed=6)
    for pt, ct in zip(inst.plaintexts, inst.ciphertexts):
        assert speck.encrypt(pt, inst.key_words, 4) == ct


def test_equations_degree_at_most_two():
    inst = speck.generate_instance(1, 4, seed=2)
    assert max(p.degree() for p in inst.polynomials) <= 2


def test_bosphorus_recovers_consistent_key():
    inst = speck.generate_instance(2, 2, seed=9)
    cfg = Config(xl_sample_bits=12, elimlin_sample_bits=12,
                 sat_conflict_start=5000, sat_conflict_max=20000,
                 max_iterations=5)
    result = Bosphorus(cfg).preprocess_anf(inst.ring, inst.polynomials)
    assert result.status == "sat"
    assert result.solution.satisfies(inst.polynomials)
    key_words = []
    for w in range(4):
        word = 0
        for b in range(16):
            word |= result.solution[w * 16 + b] << b
        key_words.append(word)
    for pt, ct in zip(inst.plaintexts, inst.ciphertexts):
        assert speck.encrypt(pt, key_words, inst.rounds) == ct

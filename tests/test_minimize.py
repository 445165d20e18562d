"""Tests for the Quine–McCluskey minimiser (ESPRESSO stand-in)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.truthtable import truth_table
from repro.anf import Ring, parse_polynomial
from repro.minimize import cube_to_clause, minimize, prime_implicants


def cube_covers(cube, minterm, n_vars):
    mask, value = cube
    return (minterm & mask) == (value & mask)


def check_cover(minterms, n_vars, cubes):
    """Cubes must cover all minterms and nothing else."""
    allowed = set(minterms)
    covered = set()
    for cube in cubes:
        for m in range(1 << n_vars):
            if cube_covers(cube, m, n_vars):
                assert m in allowed, "cube covers forbidden point"
                covered.add(m)
    assert set(minterms) <= covered


def test_single_minterm():
    cubes = minimize([5], 3)
    assert cubes == [(7, 5)]


def test_full_cover_collapses_to_one_cube():
    cubes = minimize(list(range(8)), 3)
    assert cubes == [(0, 0)]


def test_empty_on_set():
    assert minimize([], 4) == []


def test_xor_function_needs_all_minterms():
    # Parity has no adjacent pairs: every on-set point is its own cube.
    on = [m for m in range(8) if bin(m).count("1") % 2 == 1]
    cubes = minimize(on, 3)
    assert len(cubes) == 4
    check_cover(on, 3, cubes)


def test_prime_implicants_classic():
    # Classic example: minterms {0,1,2,5,6,7} of 3 vars.
    primes = prime_implicants([0, 1, 2, 5, 6, 7], 3)
    assert (6, 0) in primes  # cube 00- (bits 1,2 fixed to 0)
    check = minimize([0, 1, 2, 5, 6, 7], 3)
    check_cover([0, 1, 2, 5, 6, 7], 3, check)
    assert len(check) <= 4


def test_paper_fig3_karnaugh_map():
    """Fig 2/3: x1x3 + x1 + x2 + x4 + 1 minimises to exactly 6 clauses."""
    ring = Ring()
    p = parse_polynomial("x1*x3 + x1 + x2 + x4 + 1", ring)
    support = tuple(sorted(p.variables()))
    on = truth_table(p, support)
    assert len(on) == 8
    cubes = minimize(on, 4)
    assert len(cubes) == 6
    check_cover(on, 4, cubes)
    # And they translate to the paper's clause set (Fig 2, left).
    clauses = set()
    for cube in cubes:
        lits = cube_to_clause(cube, support, 4)
        clauses.add(tuple(sorted((v, neg) for v, neg in lits)))
    paper = {
        ((1, False), (2, False), (4, False)),
        ((1, True), (2, True), (3, False), (4, False)),
        ((2, False), (3, True), (4, False)),
        ((1, True), (2, False), (3, False), (4, True)),
        ((1, False), (2, True), (4, True)),
        ((2, True), (3, True), (4, True)),
    }
    assert clauses == paper


def test_cube_to_clause_polarity():
    # Cube fixing bit0=1, bit2=0 forbids x=1,z=0: clause (¬x ∨ z).
    lits = cube_to_clause((0b101, 0b001), [10, 11, 12], 3)
    assert lits == [(10, True), (12, False)]


@settings(max_examples=60)
@given(st.sets(st.integers(0, 15)))
def test_minimize_is_valid_cover(on):
    cubes = minimize(sorted(on), 4)
    check_cover(on, 4, cubes)


@settings(max_examples=30)
@given(st.sets(st.integers(0, 31), min_size=1))
def test_minimize_never_worse_than_minterms(on):
    cubes = minimize(sorted(on), 5)
    assert len(cubes) <= len(on)

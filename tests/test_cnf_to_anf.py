"""Tests for CNF → ANF conversion (paper section III-D)."""

import itertools

import pytest

from oracles import polynomial as oracle
from repro.anf import Poly
from repro.core import Config, clause_to_poly, cnf_to_anf
from repro.sat import CnfFormula, mk_lit


def test_paper_example_clause():
    """¬x1 ∨ x2 becomes x1·(x2+1) = x1x2 + x1."""
    p = clause_to_poly([mk_lit(1, True), mk_lit(2)])
    assert p == Poly([(1, 2), (1,)])


def test_all_negative_clause_single_monomial():
    # ¬x0 ∨ ¬x1 -> x0x1.
    p = clause_to_poly([mk_lit(0, True), mk_lit(1, True)])
    assert p == Poly([(0, 1)])


def test_positive_clause_expands():
    # x0 ∨ x1 -> (x0+1)(x1+1) = x0x1 + x0 + x1 + 1: 2^2 terms.
    p = clause_to_poly([mk_lit(0), mk_lit(1)])
    assert len(p) == 4


def test_polynomial_vanishes_iff_clause_satisfied():
    lits = [mk_lit(0), mk_lit(1, True), mk_lit(2)]
    p = clause_to_poly(lits)
    for bits in itertools.product([0, 1], repeat=3):
        clause_sat = any(bits[l >> 1] ^ (l & 1) for l in lits)
        assert (p.evaluate(list(bits)) == 0) == clause_sat


def test_clause_cutting_limits_positive_literals():
    formula = CnfFormula(8)
    formula.add_clause([mk_lit(v) for v in range(8)])  # 8 positives
    result = cnf_to_anf(formula, Config(clause_cut_len=3))
    assert result.cut_vars, "expected clause cutting"
    for p in result.polynomials:
        # 2^(positives) terms; with <= 3 positives + 1 aux that is <= 16.
        assert len(p) <= 16


def test_cutting_preserves_satisfiability():
    formula = CnfFormula(6)
    formula.add_clause([mk_lit(v) for v in range(6)])
    formula.add_clause([mk_lit(0, True), mk_lit(1, True)])
    result = cnf_to_anf(formula, Config(clause_cut_len=2))
    n_total = result.ring.n_vars
    # Project ANF solutions to the 6 CNF vars; compare with CNF models.
    anf_sols = set()
    for bits in itertools.product([0, 1], repeat=n_total):
        if all(p.evaluate(list(bits)) == 0 for p in result.polynomials):
            anf_sols.add(bits[:6])
    cnf_sols = set()
    for bits in itertools.product([0, 1], repeat=6):
        if all(
            any(bits[l >> 1] ^ (l & 1) for l in c) for c in formula.clauses
        ):
            cnf_sols.add(bits)
    assert anf_sols == cnf_sols


def test_empty_clause_becomes_contradiction():
    formula = CnfFormula(1)
    formula.add_clause([])
    result = cnf_to_anf(formula)
    assert Poly.one() in result.polynomials


def test_xor_constraints_become_linear():
    formula = CnfFormula(4)
    formula.add_xor([0, 1, 2], 1)
    result = cnf_to_anf(formula)
    assert result.polynomials == [Poly([(0,), (1,), (2,), ()])]


def test_unit_clause():
    formula = CnfFormula(2)
    formula.add_clause([mk_lit(1, True)])
    result = cnf_to_anf(formula)
    assert result.polynomials == [Poly.variable(1)]


def test_variable_mapping_is_identity():
    formula = CnfFormula(5)
    formula.add_clause([mk_lit(4), mk_lit(2, True)])
    result = cnf_to_anf(formula)
    assert result.n_cnf_vars == 5
    assert result.ring.n_vars >= 5


def test_clause_to_poly_mask_matches_tuple_oracle():
    """The mask-native clause expansion is the tuple oracle's equal."""
    import random

    rng = random.Random(5)
    for _ in range(40):
        lits = [
            mk_lit(rng.randrange(70), rng.random() < 0.5)
            for _ in range(rng.randint(1, 5))
        ]
        assert clause_to_poly(lits) == oracle.clause_to_poly(lits)


def test_back_translation_of_converted_anf_preserves_models():
    """ANF → CNF → ANF round trip: the conversion's cut and monomial
    auxiliaries come back as ordinary variables whose projection to the
    original ANF variables preserves the solution set exactly."""
    from repro.anf import Poly
    from repro.core import AnfToCnf

    polys = [
        Poly([(0, 1), (2,), (3,), ()]),  # x0x1 + x2 + x3 + 1
        Poly([(1, 2), (0,), (3,)]),
        Poly([(0,), (1,), (2,), (3,), (4,)]),
    ]
    n = 5
    original = set()
    for bits in itertools.product([0, 1], repeat=n):
        if all(p.evaluate(list(bits)) == 0 for p in polys):
            original.add(bits)
    # Force both auxiliary kinds: tiny K (Tseitin monomial vars) and
    # tiny L (cut vars).
    conv = AnfToCnf(Config(karnaugh_limit=1, xor_cut_len=3)).convert_polynomials(
        polys, n_vars=n
    )
    assert conv.cut_vars and conv.stats.monomial_vars > 0
    back = cnf_to_anf(conv.formula, Config(clause_cut_len=4))
    # Every CNF variable of the intermediate formula is an original,
    # monomial or cut variable; back-translation then adds its own
    # clause-cutting auxiliaries on top.
    for v in range(conv.formula.n_vars):
        assert (
            conv.is_original_var(v)
            or conv.is_monomial_var(v)
            or conv.is_cut_var(v)
        )
    n_total = back.ring.n_vars
    projected = set()
    for bits in itertools.product([0, 1], repeat=n_total):
        if all(p.evaluate(list(bits)) == 0 for p in back.polynomials):
            projected.add(bits[:n])
    assert projected == original

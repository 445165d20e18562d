"""Tests for CNF → ANF conversion (paper section III-D)."""

import itertools
import random
from collections import Counter

import pytest

from oracles import polynomial as oracle
from repro.anf import Poly
from repro.core import Bosphorus, Config, clause_to_poly, cnf_to_anf
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
    assert result.ring.n_vars >= 5
    assert result.polynomials == [clause_to_poly([mk_lit(4), mk_lit(2, True)])]


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
            v < conv.n_anf_vars
            or v in conv.monomial_of_var
            or v in conv.cut_vars
        )
    n_total = back.ring.n_vars
    projected = set()
    for bits in itertools.product([0, 1], repeat=n_total):
        if all(p.evaluate(list(bits)) == 0 for p in back.polynomials):
            projected.add(bits[:n])
    assert projected == original


# -- XOR recovery, against brute force ----------------------------------------


def _parity_shards(variables, rhs):
    """The ``2**(k-1)`` clauses whose conjunction is ``Σ x_v = rhs``: each
    forbids one assignment of the wrong parity."""
    return [
        [mk_lit(v, bool(b)) for v, b in zip(variables, bits)]
        for bits in itertools.product([0, 1], repeat=len(variables))
        if sum(bits) & 1 != rhs
    ]


def _linear(variables, rhs):
    return Poly([(v,) for v in variables]).add_constant(rhs)


def _mixed_cnf(seed):
    """A CNF of at most 10 variables mixing full XOR groups, groups one
    shard short, duplicate shards, ordinary clauses and native ``x``
    lines.  Planted groups have distinct supports, and no ordinary clause
    or native XOR shares one, so a planted partial group stays partial."""
    rng = random.Random(seed)
    n = rng.randint(6, 10)
    taken = set()

    def fresh_support():
        while True:
            support = sorted(rng.sample(range(n), rng.randint(2, 6)))
            if frozenset(support) not in taken:
                taken.add(frozenset(support))
                return support

    full, partial, clauses = [], [], []
    for _ in range(rng.randint(1, 3)):
        support, rhs = fresh_support(), rng.randint(0, 1)
        full.append((support, rhs))
        clauses += _parity_shards(support, rhs)
    for _ in range(rng.randint(1, 2)):
        support, rhs = fresh_support(), rng.randint(0, 1)
        shards = _parity_shards(support, rhs)
        del shards[rng.randrange(len(shards))]
        partial.append((support, rhs, shards))
        clauses += shards
    for _ in range(rng.randint(0, 2)):
        clauses.append(list(rng.choice(clauses)))
    for _ in range(rng.randint(2, 8)):
        support = rng.sample(range(n), rng.randint(1, 4))
        if frozenset(support) not in taken:
            clauses.append([mk_lit(v, rng.random() < 0.5) for v in support])
    rng.shuffle(clauses)
    formula = CnfFormula(n)
    for clause in clauses:
        rng.shuffle(clause)
        formula.add_clause(clause)
    for _ in range(rng.randint(0, 2)):
        support = sorted(rng.sample(range(n), rng.randint(1, 4)))
        if frozenset(support) not in taken:
            formula.add_xor(support, rng.randint(0, 1))
    return formula, full, partial


def _cnf_models(formula):
    """The CNF's models (clauses and native XORs), as assignment masks."""
    models = set()
    for a in range(1 << formula.n_vars):
        if all(
            any((a >> (l >> 1) & 1) ^ (l & 1) for l in c) for c in formula.clauses
        ) and all(
            sum(a >> v & 1 for v in vs) & 1 == rhs for vs, rhs in formula.xors
        ):
            models.add(a)
    return models


def _anf_solutions(result, n):
    """The ANF's solutions projected to the first ``n`` (the CNF's)
    variables, as masks."""
    total = result.ring.n_vars
    polys = [p.masks for p in result.polynomials]
    projected = set()
    for a in range(1 << total):
        if all(
            not sum(1 for m in masks if m & a == m) & 1 for masks in polys
        ):
            projected.add(a & ((1 << n) - 1))
    return projected


def _complete_groups(clauses):
    """``(support, rhs) -> the sign patterns forming it``, for each
    support carrying every shard of one sign parity, read off the
    definition: a k-variable parity is all 2**(k-1) clauses forbidding
    its wrong-parity assignments."""
    patterns = {}
    for clause in clauses:
        support = frozenset(l >> 1 for l in clause)
        if 2 <= len(clause) == len(support) <= 6:
            negated = frozenset(l >> 1 for l in clause if l & 1)
            patterns.setdefault(support, set()).add(negated)
    groups = {}
    for support, seen in patterns.items():
        for parity in (0, 1):
            mine = {p for p in seen if len(p) & 1 == parity}
            if len(mine) == 1 << (len(support) - 1):
                groups[(tuple(sorted(support)), parity ^ 1)] = mine
                break
    return groups


def test_duplicate_shard_is_consumed_with_its_group():
    """A repeated shard of a recovered parity goes with the rest of its
    group: the CNF yields the parity's linear polynomial and nothing
    else (not also the shard's degree-3 clause polynomial)."""
    shards = _parity_shards([0, 1, 2], 1)
    formula = CnfFormula(3)
    for clause in shards + [list(shards[0])]:
        formula.add_clause(clause)
    assert cnf_to_anf(formula).polynomials == [_linear([0, 1, 2], 1)]


@pytest.mark.parametrize("seed", range(40))
def test_xor_recovery_matches_brute_force(seed):
    formula, full, partial = _mixed_cnf(seed)
    models = _cnf_models(formula)

    # Same solutions over the CNF variables, clause cutting included.
    assert _anf_solutions(cnf_to_anf(formula), formula.n_vars) == models

    # Without cutting the output is exactly: one linear polynomial per
    # complete group, one clause polynomial per clause the groups do not
    # consume (every copy of a group's shard is consumed), the native
    # XORs.
    result = cnf_to_anf(formula, Config(clause_cut_len=6))
    assert not result.cut_vars
    groups = _complete_groups(formula.clauses)
    consumed = {
        tuple(sorted(mk_lit(v, v in negated) for v in support))
        for (support, rhs), patterns in groups.items()
        for negated in patterns
    }
    want = Counter(_linear(vs, rhs) for vs, rhs in groups)
    want.update(_linear(vs, rhs) for vs, rhs in formula.xors)
    for clause in formula.clauses:
        if tuple(sorted(clause)) in consumed:
            continue
        if not clause_to_poly(clause).is_zero():
            want[clause_to_poly(clause)] += 1
    got = Counter(result.polynomials)
    assert got == want

    # The planted groups: each full one is a single linear polynomial,
    # each one a shard short stays its clause polynomials.
    for support, rhs in full:
        assert got[_linear(support, rhs)] == 1
    for support, rhs, shards in partial:
        assert not got[_linear(support, rhs)]
        for shard in shards:
            assert got[clause_to_poly(shard)] >= 1

    # Bosphorus as a CNF preprocessor agrees with brute force.
    pre = Bosphorus(Config()).preprocess_cnf(formula)
    if models:
        assert pre.is_sat
        values = pre.solution.values
        assert len(values) == formula.n_vars
        assert sum(b << v for v, b in enumerate(values)) in models
    else:
        assert pre.is_unsat

